#include "ingest/hybrid_gateway.h"

#include <utility>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace hyperq {
namespace ingest {

namespace {

/// Hybrid-path observability (docs/OBSERVABILITY.md).
struct HybridMetrics {
  Counter* split;    ///< queries decomposed into historical + tail partials
  Counter* merged;   ///< queries served from a merged snapshot
  Counter* plain;    ///< live-gateway queries with no tail rows in play
  Counter* errors;
  LatencyHistogram* split_us;

  static HybridMetrics& Get() {
    static HybridMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new HybridMetrics{r.GetCounter("ingest.hybrid_split"),
                               r.GetCounter("ingest.hybrid_merged"),
                               r.GetCounter("ingest.hybrid_plain"),
                               r.GetCounter("ingest.hybrid_errors"),
                               r.GetHistogram("ingest.hybrid_split_us")};
    }();
    return *m;
  }
};

/// Session temp tables shadowing catalog tables for part of one query,
/// erased on every exit path so no snapshot outlives the reads it served.
class ScopedShadows {
 public:
  explicit ScopedShadows(sqldb::Session* session) : session_(session) {}
  ~ScopedShadows() {
    for (const std::string& name : names_) session_->temp_tables().erase(name);
  }
  ScopedShadows(const ScopedShadows&) = delete;
  ScopedShadows& operator=(const ScopedShadows&) = delete;

  void Add(const std::string& name,
           std::shared_ptr<sqldb::StoredTable> table) {
    session_->temp_tables()[name] = std::move(table);
    names_.push_back(name);
  }

 private:
  sqldb::Session* session_;
  std::vector<std::string> names_;
};

}  // namespace

HybridGateway::HybridGateway(sqldb::Database* db, IngestStore* store)
    : db_(db),
      store_(store),
      session_(db->CreateSession()),
      merge_session_(merge_db_.CreateSession()) {}

Result<std::vector<HybridGateway::LiveRead>>
HybridGateway::ReferencedLiveTables(const std::string& sql) const {
  std::vector<LiveRead> out;
  for (const std::string& name : store_->LiveTables()) {
    if (sql.find(name) == std::string::npos) continue;
    // A session temp table of the same name legitimately shadows the
    // shared one — the query is not about the live table at all.
    if (session_->temp_tables().count(name) != 0) continue;
    HQ_ASSIGN_OR_RETURN(IngestStore::TableSnapshot snap,
                        store_->Snapshot(name));
    if (snap.tail != nullptr) out.push_back({name, std::move(snap)});
  }
  return out;
}

Result<sqldb::QueryResult> HybridGateway::Execute(const std::string& sql) {
  // Same fault site and semantics as DirectGateway: this is where a remote
  // backend link would fail.
  if (FaultHit f = CheckFault("backend.execute");
      f.kind == FaultHit::Kind::kError) {
    return f.error;
  }
  // Setup SQL (eager materialization of pipeline variables) snapshots live
  // tables by value, so the tail must be in the historical side first —
  // flush-before-read keeps materialized variables complete. Substring
  // matching over-approximates the referenced set; a spurious flush is
  // harmless (it only moves rows across the boundary).
  HQ_ASSIGN_OR_RETURN(std::vector<LiveRead> live, ReferencedLiveTables(sql));
  for (const LiveRead& read : live) {
    HQ_RETURN_IF_ERROR(store_->Flush(read.table));
  }
  return db_->Execute(session_.get(), sql);
}

Result<sqldb::QueryResult> HybridGateway::ExecuteTranslated(
    const Translation& t) {
  if (FaultHit f = CheckFault("backend.execute");
      f.kind == FaultHit::Kind::kError) {
    return f.error;
  }
  HQ_ASSIGN_OR_RETURN(std::vector<LiveRead> live,
                      ReferencedLiveTables(t.result_sql));
  if (live.empty()) {
    HybridMetrics::Get().plain->Increment();
    return db_->Execute(session_.get(), t.result_sql);
  }
  if (live.size() == 1 && t.shard.mode != ShardMode::kNone &&
      t.shard.table == live[0].table) {
    return SplitExecute(t, live[0]);
  }
  return MergedExecute(t, live);
}

Result<sqldb::QueryResult> HybridGateway::SplitExecute(const Translation& t,
                                                       const LiveRead& live) {
  HybridMetrics& metrics = HybridMetrics::Get();
  ScopedLatencyTimer timer(MetricsRegistry::Global(), metrics.split_us);
  const std::string& partial_sql =
      t.shard.partial_sql.empty() ? t.result_sql : t.shard.partial_sql;

  // The two partials run sequentially on the calling thread: tail first
  // (watermark-bounded, so small), then historical. Running them under one
  // ParallelFor would cost more than it saves: the pool never nests, so
  // the historical partial's morsel loop would collapse to a single
  // thread — the dominant scan would lose exactly the parallelism that
  // makes it competitive with a plain table. Sequential, the historical
  // partial owns the pool like any static query. The ambient deadline
  // stays with the thread; the executor checks it at morsel boundaries,
  // which bounds a long tail scan too.
  if (Deadline::Current().Expired()) {
    return DeadlineExceeded("ingest.hybrid");
  }
  std::vector<sqldb::QueryResult> partials(2);  // historical, tail
  auto run_partial = [&](int part) -> Status {
    // Each partial sees its part of the snapshot as a temp shadow under
    // the live table's name.
    ScopedShadows shadow(session_.get());
    shadow.Add(live.table,
               part == 0 ? live.snap.historical : live.snap.tail);
    Result<sqldb::QueryResult> r = db_->Execute(session_.get(), partial_sql);
    if (!r.ok()) {
      metrics.errors->Increment();
      return Status(r.status().code(),
                    StrCat(part == 0 ? "historical" : "tail", " partial: ",
                           r.status().message()));
    }
    partials[part] = std::move(r).value();
    return Status::OK();
  };
  HQ_RETURN_IF_ERROR(run_partial(1));
  HQ_RETURN_IF_ERROR(run_partial(0));

  // Gather historical-then-tail into the merge engine's partials table.
  // Concatenation order never reaches results: every merge plan re-sorts
  // by explicit keys (ordcol tiebreak or group keys).
  Result<sqldb::QueryResult> mergedr = merge_db_.ExecuteOverParts(
      merge_session_.get(), kShardPartialsTable, partials, t.shard.merge_sql);
  if (!mergedr.ok()) {
    metrics.errors->Increment();
    return mergedr.status();
  }
  metrics.split->Increment();
  return mergedr;
}

Result<sqldb::QueryResult> HybridGateway::MergedExecute(
    const Translation& t, const std::vector<LiveRead>& live) {
  HybridMetrics& metrics = HybridMetrics::Get();
  // Each snapshot's two parts concatenated, shadowed into the main session
  // so the query still resolves its materialized pipeline variables
  // (hq_temp_*).
  ScopedShadows shadows(session_.get());
  for (const LiveRead& read : live) {
    const sqldb::StoredTable& hist = *read.snap.historical;
    auto merged = std::make_shared<sqldb::StoredTable>(hist);
    merged->data = sqldb::ConcatColumns(
        hist.columns, {&hist.data, &read.snap.tail->data});
    merged->row_count += read.snap.tail->row_count;
    shadows.Add(read.table, std::move(merged));
  }
  Result<sqldb::QueryResult> r = db_->Execute(session_.get(), t.result_sql);
  if (!r.ok()) {
    metrics.errors->Increment();
    return r;
  }
  metrics.merged->Increment();
  return r;
}

}  // namespace ingest
}  // namespace hyperq
