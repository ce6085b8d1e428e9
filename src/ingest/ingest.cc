#include "ingest/ingest.h"

#include <utility>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "core/loader.h"
#include "core/mdi.h"
#include "algebrizer/metadata.h"

namespace hyperq {
namespace ingest {

namespace {

using sqldb::Column;
using sqldb::ColumnPtr;
using sqldb::SqlType;
using sqldb::StoredTable;

struct IngestMetrics {
  Counter* rows;
  Counter* batches;
  Counter* flushes;
  Counter* flush_errors;
  Gauge* tail_rows;
  LatencyHistogram* upd_us;
  LatencyHistogram* flush_us;

  static IngestMetrics& Get() {
    static IngestMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new IngestMetrics{
          r.GetCounter("ingest.rows"),     r.GetCounter("ingest.batches"),
          r.GetCounter("ingest.flushes"), r.GetCounter("ingest.flush_errors"),
          r.GetGauge("ingest.tail_rows"), r.GetHistogram("ingest.upd_us"),
          r.GetHistogram("ingest.flush_us")};
    }();
    return *m;
  }
};

/// Rough heap footprint of a column, for the byte watermark.
size_t ColumnBytes(const Column& c) {
  switch (c.storage()) {
    case Column::Storage::kInt:
    case Column::Storage::kFloat:
      return c.size() * 8 + c.null_bytes().size();
    case Column::Storage::kString: {
      size_t b = c.null_bytes().size();
      for (const std::string& s : c.strs()) b += s.size() + 16;
      return b;
    }
    case Column::Storage::kMixed:
      return c.size() * 32;
    case Column::Storage::kEmpty:
      return c.size();
  }
  return 0;
}

/// The effective Q column type for schema purposes (string columns arrive
/// as mixed lists of char lists — same rule as LoadQTable).
QType EffectiveQType(const QValue& col) {
  QType qt = col.type();
  return qt == QType::kMixed ? QType::kChar : qt;
}

}  // namespace

IngestStore::IngestStore(sqldb::Database* db, IngestOptions options)
    : db_(db), options_(options) {}

IngestStore::LiveTable* IngestStore::Find(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status IngestStore::Register(const std::string& table) {
  return GetOrRegister(table, nullptr).status();
}

Result<IngestStore::LiveTable*> IngestStore::GetOrRegister(
    const std::string& table, const QValue* batch) {
  if (LiveTable* lt = Find(table)) return lt;

  // Build the registration outside mu_ (catalog I/O), publish under it.
  auto lt = std::make_unique<LiveTable>();
  if (db_->catalog().HasTable(table)) {
    HQ_ASSIGN_OR_RETURN(std::shared_ptr<StoredTable> hist,
                        db_->catalog().GetTable(table));
    lt->schema = hist->columns;
    lt->key_columns = hist->key_columns;
    lt->next_ord = static_cast<int64_t>(hist->row_count);
    if (lt->schema.empty() ||
        lt->schema.back().name != std::string(kOrdColName)) {
      return InvalidArgument(
          StrCat("table '", table,
                 "' lacks the implicit order column; only Q-loaded tables "
                 "can be ingest-backed"));
    }
  } else {
    // First contact with an unknown table: adopt the batch's schema and
    // create the (empty) historical side, exactly as LoadQTable would.
    if (batch == nullptr || !batch->IsTable()) {
      return NotFound(
          StrCat("live table '", table,
                 "' is not registered and the first upd is not a named "
                 "table value"));
    }
    const QTable& t = batch->Table();
    StoredTable stored;
    stored.name = table;
    for (size_t c = 0; c < t.names.size(); ++c) {
      stored.columns.push_back(sqldb::TableColumn{
          t.names[c], SqlTypeFromQType(EffectiveQType(t.columns[c]))});
    }
    stored.columns.push_back(
        sqldb::TableColumn{kOrdColName, SqlType::kBigInt});
    stored.EnsureColumns();
    HQ_RETURN_IF_ERROR(db_->CreateAndLoad(stored));
    lt->schema = std::move(stored.columns);
    lt->next_ord = 0;
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tables_.emplace(table, std::move(lt));
  (void)inserted;  // a racing registration won; both built the same state
  return it->second.get();
}

Result<size_t> IngestStore::Upd(const std::string& table,
                                const QValue& data) {
  IngestMetrics& m = IngestMetrics::Get();
  ScopedLatencyTimer timer(MetricsRegistry::Global(), m.upd_us);

  // The fault site guards the whole append: a failed upd is all-or-nothing
  // (the tail is untouched, the publisher retries the batch).
  if (FaultHit f = CheckFault("ingest.upd");
      f.kind == FaultHit::Kind::kError) {
    return f.error;
  }

  HQ_ASSIGN_OR_RETURN(LiveTable * lt, GetOrRegister(table, &data));

  // Resolve the batch columns against the schema (ordcol excluded): a
  // table value matches by name, a plain column list positionally.
  const size_t ncols = lt->schema.size() - 1;
  std::vector<const QValue*> qcols(ncols, nullptr);
  if (data.IsTable()) {
    const QTable& t = data.Table();
    for (size_t c = 0; c < ncols; ++c) {
      int idx = t.FindColumn(lt->schema[c].name);
      if (idx < 0) {
        return InvalidArgument(StrCat("upd batch for '", table,
                                      "' lacks column '", lt->schema[c].name,
                                      "'"));
      }
      qcols[c] = &t.columns[idx];
    }
  } else if (data.IsMixedList() && data.Items().size() == ncols) {
    for (size_t c = 0; c < ncols; ++c) qcols[c] = &data.Items()[c];
  } else {
    return InvalidArgument(
        StrCat("upd data for '", table, "' must be a table or a list of ",
               ncols, " columns"));
  }

  const size_t rows = qcols.empty() ? 0 : qcols[0]->Count();
  auto seg = std::make_shared<Segment>();
  seg->rows = rows;
  seg->cols.reserve(lt->schema.size());
  for (size_t c = 0; c < ncols; ++c) {
    if (qcols[c]->Count() != rows) {
      return InvalidArgument(
          StrCat("upd batch for '", table, "' has ragged columns"));
    }
    if (SqlTypeFromQType(EffectiveQType(*qcols[c])) != lt->schema[c].type &&
        rows > 0) {
      return InvalidArgument(StrCat("upd batch column '", lt->schema[c].name,
                                    "' does not match the schema of '",
                                    table, "'"));
    }
    ColumnPtr col = Column::Make(lt->schema[c].type);
    col->Reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      HQ_ASSIGN_OR_RETURN(sqldb::Datum d,
                          DatumFromQ(*qcols[c], static_cast<int64_t>(r)));
      col->Append(d);
    }
    seg->bytes += ColumnBytes(*col);
    seg->cols.push_back(std::move(col));
  }

  bool over_watermark = false;
  {
    std::lock_guard<std::mutex> lock(lt->mu);
    // The order column continues the historical numbering, so the live
    // table is bit-for-bit the table a bulk load of the same rows builds.
    std::vector<int64_t> ord(rows);
    for (size_t r = 0; r < rows; ++r) {
      ord[r] = lt->next_ord + static_cast<int64_t>(r);
    }
    seg->cols.push_back(Column::FromInts(SqlType::kBigInt, std::move(ord)));
    seg->bytes += rows * 8;
    seg->seq = lt->next_seq++;
    lt->next_ord += static_cast<int64_t>(rows);
    lt->rows_ingested += rows;
    lt->batches += 1;
    lt->tail_rows += rows;
    lt->tail_bytes += seg->bytes;
    lt->segments.push_back(std::move(seg));
    over_watermark = lt->tail_rows > options_.tail_max_rows ||
                     lt->tail_bytes > options_.tail_max_bytes;
  }
  UpdateTailGauge(static_cast<int64_t>(rows));
  m.rows->Increment(rows);
  m.batches->Increment();

  // Watermark flushes degrade transparently: a failed one leaves the rows
  // in the tail (still queryable) and a later flush retries.
  if (over_watermark && !Flush(table).ok()) m.flush_errors->Increment();
  return rows;
}

Status IngestStore::FlushLocked(const std::string& name, LiveTable* lt) {
  // Caller holds lt->mu: a Snapshot sees the rows on exactly one side.
  if (lt->segments.empty()) return Status::OK();

  // Before any mutation: an injected flush failure leaves the tail intact,
  // so readers keep full coverage and a retry flushes the same rows.
  if (FaultHit f = CheckFault("ingest.flush");
      f.kind == FaultHit::Kind::kError) {
    return f.error;
  }

  IngestMetrics& m = IngestMetrics::Get();
  ScopedLatencyTimer timer(MetricsRegistry::Global(), m.flush_us);

  size_t total = 0;
  std::vector<const std::vector<ColumnPtr>*> parts;
  for (const auto& seg : lt->segments) {
    total += seg->rows;
    parts.push_back(&seg->cols);
  }
  HQ_RETURN_IF_ERROR(db_->catalog().AppendColumns(
      name, sqldb::ConcatColumns(lt->schema, parts), total));
  lt->segments.clear();
  lt->rows_flushed += total;
  lt->flushes += 1;
  lt->tail_rows = 0;
  lt->tail_bytes = 0;
  UpdateTailGauge(-static_cast<int64_t>(total));
  m.flushes->Increment();
  return Status::OK();
}

Status IngestStore::Flush(const std::string& table) {
  LiveTable* lt = Find(table);
  if (lt == nullptr) {
    return NotFound(StrCat("'", table, "' is not a live table"));
  }
  std::lock_guard<std::mutex> lock(lt->mu);
  return FlushLocked(table, lt);
}

Status IngestStore::FlushAll() {
  Status first = Status::OK();
  for (const std::string& name : LiveTables()) {
    Status s = Flush(name);
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

bool IngestStore::IsLive(const std::string& table) const {
  return Find(table) != nullptr;
}

std::vector<std::string> IngestStore::LiveTables() const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(tables_.size());
  for (const auto& [name, lt] : tables_) out.push_back(name);
  return out;
}

Result<IngestStore::TableSnapshot> IngestStore::Snapshot(
    const std::string& table) const {
  LiveTable* lt = Find(table);
  if (lt == nullptr) {
    return NotFound(StrCat("'", table, "' is not a live table"));
  }
  // FlushLocked holds lt->mu across the catalog append and the segment
  // clear, so the catalog table and segment list captured together here
  // partition the table exactly. The tail is built after the lock is
  // released so it never stalls upd or flush: segments are immutable, and
  // a flush publishes a new catalog table rather than mutating this one.
  TableSnapshot snap;
  std::vector<std::shared_ptr<const Segment>> segments;
  {
    std::lock_guard<std::mutex> lock(lt->mu);
    HQ_ASSIGN_OR_RETURN(snap.historical, db_->catalog().GetTable(table));
    segments = lt->segments;
  }
  if (segments.empty()) return snap;
  snap.tail = std::make_shared<StoredTable>();
  snap.tail->name = table;
  snap.tail->columns = lt->schema;
  snap.tail->key_columns = lt->key_columns;
  std::vector<const std::vector<ColumnPtr>*> parts;
  for (const auto& seg : segments) {
    snap.tail->row_count += seg->rows;
    parts.push_back(&seg->cols);
  }
  // One segment is shared as-is (zero-copy: segments are immutable).
  snap.tail->data = segments.size() == 1
                        ? segments[0]->cols
                        : sqldb::ConcatColumns(lt->schema, parts);
  return snap;
}

IngestStore::TableStats IngestStore::Stats(const std::string& table) const {
  TableStats s;
  LiveTable* lt = Find(table);
  if (lt == nullptr) return s;
  std::lock_guard<std::mutex> lock(lt->mu);
  s.rows_ingested = lt->rows_ingested;
  s.rows_flushed = lt->rows_flushed;
  s.batches = lt->batches;
  s.flushes = lt->flushes;
  s.tail_rows = lt->tail_rows;
  return s;
}

QValue IngestStore::StatsTable() const {
  std::vector<std::string> names;
  std::vector<int64_t> rows, batches, flushes, tail_rows, rows_flushed;
  for (const std::string& name : LiveTables()) {
    TableStats s = Stats(name);
    names.push_back(name);
    rows.push_back(static_cast<int64_t>(s.rows_ingested));
    batches.push_back(static_cast<int64_t>(s.batches));
    flushes.push_back(static_cast<int64_t>(s.flushes));
    tail_rows.push_back(static_cast<int64_t>(s.tail_rows));
    rows_flushed.push_back(static_cast<int64_t>(s.rows_flushed));
  }
  return QValue::MakeTableUnchecked(
      {"table", "rows", "batches", "flushes", "tail_rows", "rows_flushed"},
      {QValue::Syms(std::move(names)),
       QValue::IntList(QType::kLong, std::move(rows)),
       QValue::IntList(QType::kLong, std::move(batches)),
       QValue::IntList(QType::kLong, std::move(flushes)),
       QValue::IntList(QType::kLong, std::move(tail_rows)),
       QValue::IntList(QType::kLong, std::move(rows_flushed))});
}

void IngestStore::UpdateTailGauge(int64_t delta) {
  total_tail_rows_.fetch_add(delta, std::memory_order_relaxed);
  IngestMetrics::Get().tail_rows->Set(
      total_tail_rows_.load(std::memory_order_relaxed));
}

}  // namespace ingest
}  // namespace hyperq
