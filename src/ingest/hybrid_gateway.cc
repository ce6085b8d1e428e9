#include "ingest/hybrid_gateway.h"

#include <utility>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "xformer/shard_rewrite.h"

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

}  // namespace

HybridGateway::HybridGateway(sqldb::Database* db, IngestStore* store)
    : db_(db),
      store_(store),
      session_(db->CreateSession()),
      hist_session_(db->CreateSession()),
      tail_session_(tail_db_.CreateSession()),
      merge_session_(merge_db_.CreateSession()) {}

std::vector<std::string> HybridGateway::ReferencedLiveTables(
    const std::string& sql) const {
  std::vector<std::string> out;
  for (const std::string& name : store_->LiveTables()) {
    if (sql.find(name) == std::string::npos) continue;
    if (!store_->HasTail(name)) continue;
    // A session temp table of the same name legitimately shadows the
    // shared one — the query is not about the live table at all.
    if (session_->temp_tables().count(name) != 0) continue;
    out.push_back(name);
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
  for (const std::string& name : ReferencedLiveTables(sql)) {
    HQ_RETURN_IF_ERROR(store_->Flush(name));
  }
  return db_->Execute(session_.get(), sql);
}

Result<sqldb::QueryResult> HybridGateway::ExecuteTranslated(
    const Translation& t) {
  if (FaultHit f = CheckFault("backend.execute");
      f.kind == FaultHit::Kind::kError) {
    return f.error;
  }
  std::vector<std::string> live = ReferencedLiveTables(t.result_sql);
  if (live.empty()) {
    HybridMetrics::Get().plain->Increment();
    return db_->Execute(session_.get(), t.result_sql);
  }
  if (live.size() == 1 && t.hybrid.mode != ShardMode::kNone &&
      t.hybrid.table == live[0]) {
    return SplitExecute(t);
  }
  return MergedExecute(t, live);
}

Result<sqldb::QueryResult> HybridGateway::SplitExecute(const Translation& t) {
  HybridMetrics& metrics = HybridMetrics::Get();
  const std::string& table = t.hybrid.table;

  // Pin the flush boundary for the whole split: while the pin is held a
  // flush cannot move tail rows into the historical table, so the two
  // partials partition the table exactly — and the historical partial runs
  // against the unshadowed catalog, keeping it fused-kernel eligible.
  IngestStore::TailPin pin = store_->PinTail(table);
  if (pin.table() == nullptr) {
    // Tail drained between planning and execution: plain is exact. Drop
    // the stale installed snapshot, if any, so rows that already flushed
    // into the historical table aren't also held alive here.
    if (installed_tails_.erase(table) != 0) {
      (void)tail_db_.catalog().DropTable(table, /*if_exists=*/true);
    }
    metrics.plain->Increment();
    return db_->Execute(session_.get(), t.result_sql);
  }
  ScopedLatencyTimer timer(MetricsRegistry::Global(), metrics.split_us);
  const std::string& partial_sql =
      t.hybrid.partial_sql.empty() ? t.result_sql : t.hybrid.partial_sql;

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
  Status statuses[2] = {Status::OK(), Status::OK()};
  std::vector<sqldb::QueryResult> partials(2);
  {
    // The tail partial runs against a gateway-private database whose
    // catalog holds the pinned snapshot as a first-class table — NOT as a
    // session temp shadow, which would make the kernel registry step
    // aside. The install is copy-free (the StoredTable shares the pinned
    // segment's immutable columns) and keyed on the tail's content
    // version: an unchanged tail skips the reinstall entirely, so its
    // compiled kernel stays hot; a changed tail bumps the private
    // catalog's table version, which recompiles exactly once.
    auto installed = installed_tails_.find(table);
    if (installed == installed_tails_.end() ||
        installed->second != pin.version()) {
      Status s = tail_db_.catalog().CreateTable(*pin.table(),
                                                /*or_replace=*/true);
      if (!s.ok()) {
        metrics.errors->Increment();
        return s;
      }
      installed_tails_[table] = pin.version();
    }
    Result<sqldb::QueryResult> r =
        tail_db_.Execute(tail_session_.get(), partial_sql);
    if (r.ok()) {
      partials[1] = std::move(r).value();
    } else {
      statuses[1] = r.status();
    }
  }
  if (statuses[1].ok()) {
    Result<sqldb::QueryResult> r =
        db_->Execute(hist_session_.get(), partial_sql);
    if (r.ok()) {
      partials[0] = std::move(r).value();
    } else {
      statuses[0] = r.status();
    }
  }
  // Historical-first keeps the surfaced error deterministic when both fail.
  for (int i = 0; i < 2; ++i) {
    if (!statuses[i].ok()) {
      metrics.errors->Increment();
      return Status(statuses[i].code(),
                    StrCat(i == 0 ? "historical" : "tail", " partial: ",
                           statuses[i].message()));
    }
  }

  // Gather historical-then-tail into the merge engine's partials table.
  // Concatenation order never reaches results: every merge plan re-sorts
  // by explicit keys (ordcol tiebreak or group keys).
  Result<sqldb::QueryResult> mergedr = merge_db_.ExecuteOverParts(
      merge_session_.get(), kShardPartialsTable, partials,
      t.hybrid.merge_sql);
  if (!mergedr.ok()) {
    metrics.errors->Increment();
    return mergedr.status();
  }
  metrics.split->Increment();
  return mergedr;
}

Result<sqldb::QueryResult> HybridGateway::MergedExecute(
    const Translation& t, const std::vector<std::string>& live) {
  HybridMetrics& metrics = HybridMetrics::Get();
  // One consistent snapshot per live table, shadowed into the main session
  // so the query still resolves its materialized pipeline variables
  // (hq_temp_*). Shadows are removed on every exit path.
  std::vector<std::string> shadowed;
  shadowed.reserve(live.size());
  for (const std::string& name : live) {
    Result<std::shared_ptr<sqldb::StoredTable>> merged =
        store_->MergedTable(name);
    if (!merged.ok()) {
      for (const std::string& s : shadowed) session_->temp_tables().erase(s);
      metrics.errors->Increment();
      return merged.status();
    }
    session_->temp_tables()[name] = std::move(merged).value();
    shadowed.push_back(name);
  }
  Result<sqldb::QueryResult> r = db_->Execute(session_.get(), t.result_sql);
  for (const std::string& s : shadowed) session_->temp_tables().erase(s);
  if (!r.ok()) {
    metrics.errors->Increment();
    return r;
  }
  metrics.merged->Increment();
  return r;
}

void HybridGateway::ForEachDatabase(
    const std::function<void(sqldb::Database*)>& fn) {
  fn(db_);
  fn(&tail_db_);
  fn(&merge_db_);
}

}  // namespace ingest
}  // namespace hyperq
