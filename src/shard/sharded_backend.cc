#include "shard/sharded_backend.h"

#include <cstdint>
#include <utility>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/worker_pool.h"
#include "core/loader.h"
#include "sqldb/relation.h"

namespace hyperq {
namespace shard {

namespace {

/// Scatter-path observability, surfaced through `.hyperq.stats[]` like
/// every other subsystem (docs/OBSERVABILITY.md).
struct ShardMetrics {
  Counter* scatter;        ///< translated queries that took the shard path
  Counter* routed;         ///< scatters pruned to the one owning shard
  Counter* fallback;       ///< translated queries served by the fallback
  Counter* errors;         ///< scatter/gather failures surfaced to callers
  Counter* partial_rows;   ///< partial rows gathered across all shards
  LatencyHistogram* scatter_us;
  LatencyHistogram* merge_us;

  static ShardMetrics& Get() {
    static ShardMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new ShardMetrics{r.GetCounter("shard.scatter"),
                              r.GetCounter("shard.routed"),
                              r.GetCounter("shard.fallback"),
                              r.GetCounter("shard.errors"),
                              r.GetCounter("shard.partial_rows"),
                              r.GetHistogram("shard.scatter_us"),
                              r.GetHistogram("shard.merge_us")};
    }();
    return *m;
  }
};

}  // namespace

ShardedBackend::ShardedBackend(Options options)
    : options_(std::move(options)) {
  int n = options_.num_shards < 1 ? 1 : options_.num_shards;
  shards_.reserve(n);
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<sqldb::Database>());
  }
}

Status ShardedBackend::LoadQTable(const std::string& name,
                                  const QValue& table,
                                  const std::vector<std::string>& key_columns) {
  std::string partition;
  if (table.IsTable()) {
    const QTable& t = table.Table();
    for (const std::string& col : t.names) {
      if (col == options_.default_partition_column) {
        partition = col;
        break;
      }
    }
  }
  return LoadQTablePartitioned(name, table, partition, key_columns);
}

Status ShardedBackend::LoadQTablePartitioned(
    const std::string& name, const QValue& table,
    const std::string& partition_column,
    const std::vector<std::string>& key_columns) {
  // The fallback holds the full table (ordcol appended by the loader);
  // shards receive hash-selected row subsets of exactly that relation, so
  // global ordcol values survive partitioning.
  HQ_RETURN_IF_ERROR(hyperq::LoadQTable(&fallback_, name, table, key_columns));
  partitioned_.erase(name);
  if (partition_column.empty()) return Status::OK();

  HQ_ASSIGN_OR_RETURN(std::shared_ptr<sqldb::StoredTable> stored,
                      fallback_.catalog().GetTable(name));
  int pcol = stored->FindColumn(partition_column);
  if (pcol < 0) {
    return InvalidArgument(StrCat("partition column '", partition_column,
                                  "' not in table '", name, "'"));
  }

  const int n = num_shards();
  std::vector<std::vector<uint32_t>> sel(n);
  const sqldb::Column& pc = *stored->data[pcol];
  std::string buf;
  for (size_t r = 0; r < stored->row_count; ++r) {
    size_t bucket = 0;  // NULL partition keys collect on shard 0
    if (!pc.IsNull(r)) {
      buf.clear();
      sqldb::EncodeDatum(pc.At(r), &buf);
      bucket = static_cast<size_t>(Fnv1a(buf) % n);
    }
    sel[bucket].push_back(static_cast<uint32_t>(r));
  }

  for (int s = 0; s < n; ++s) {
    sqldb::StoredTable st;
    st.name = name;
    st.columns = stored->columns;
    // Gathering ascending row indices keeps each shard's ordcol ascending;
    // keys stay unique within a shard.
    st.key_columns = stored->key_columns;
    st.row_count = sel[s].size();
    st.data.reserve(stored->data.size());
    for (const sqldb::ColumnPtr& col : stored->data) {
      st.data.push_back(col->Gather(sel[s].data(), sel[s].size()));
    }
    HQ_RETURN_IF_ERROR(shards_[s]->CreateAndLoad(std::move(st)));
  }
  partitioned_[name] = partition_column;
  return Status::OK();
}

std::optional<ShardTableInfo> ShardedBackend::TableInfo(
    const std::string& table) const {
  auto it = partitioned_.find(table);
  if (it == partitioned_.end()) return std::nullopt;
  return ShardTableInfo{it->second};
}

size_t ShardedBackend::ShardRowCount(const std::string& table, int i) const {
  if (partitioned_.find(table) == partitioned_.end()) return 0;
  Result<std::shared_ptr<sqldb::StoredTable>> t =
      shards_[i]->catalog().GetTable(table);
  return t.ok() ? (*t)->row_count : 0;
}

ShardedGateway::ShardedGateway(ShardedBackend* backend)
    : backend_(backend),
      fallback_session_(backend->fallback()->CreateSession()),
      merge_session_(merge_db_.CreateSession()) {
  shard_sessions_.reserve(backend->num_shards());
  for (int i = 0; i < backend->num_shards(); ++i) {
    shard_sessions_.push_back(backend->shard(i)->CreateSession());
  }
}

Result<sqldb::QueryResult> ShardedGateway::Execute(const std::string& sql) {
  // Setup SQL and non-decomposable queries run against the fallback,
  // behind the same fault site as DirectGateway: a sharded deployment's
  // coordinator link fails the same way a direct one does.
  if (FaultHit f = CheckFault("backend.execute");
      f.kind == FaultHit::Kind::kError) {
    return f.error;
  }
  return backend_->fallback()->Execute(fallback_session_.get(), sql);
}

Result<sqldb::QueryResult> ShardedGateway::ExecuteTranslated(
    const Translation& t) {
  if (t.shard.mode == ShardMode::kNone || t.result_sql.empty() ||
      !backend_->TableInfo(t.shard.table).has_value()) {
    ShardMetrics::Get().fallback->Increment();
    return Execute(t.result_sql);
  }
  return ScatterGather(t);
}

Result<sqldb::QueryResult> ShardedGateway::ScatterGather(
    const Translation& t) {
  ShardMetrics& metrics = ShardMetrics::Get();
  MetricsRegistry& registry = MetricsRegistry::Global();
  const int n = backend_->num_shards();
  const std::string& partial_sql =
      t.shard.partial_sql.empty() ? t.result_sql : t.shard.partial_sql;

  // Partition routing: a query whose filters pin the partition column to
  // one value only needs the shard that hashes that value — the same
  // FNV-1a over the datum encoding the loader bucketed rows with. The
  // other shards could contribute only empty or neutral partials, so the
  // merge is unchanged and the result stays byte-identical.
  std::vector<int> targets;
  if (t.shard.routed) {
    std::string buf;
    sqldb::EncodeDatum(sqldb::Datum::Varchar(t.shard.route_key), &buf);
    targets.push_back(
        static_cast<int>(Fnv1a(buf) % static_cast<uint64_t>(n)));
    metrics.routed->Increment();
  } else {
    targets.reserve(n);
    for (int i = 0; i < n; ++i) targets.push_back(i);
  }
  const size_t tn = targets.size();

  // The ambient deadline is captured once and re-published inside every
  // shard task: pool workers have no thread-local request context of their
  // own, and the per-shard executor checks the ambient deadline at morsel
  // boundaries.
  const Deadline deadline = Deadline::Current();
  std::vector<Status> statuses(tn, Status::OK());
  std::vector<sqldb::QueryResult> partials(tn);
  {
    ScopedLatencyTimer timer(registry, metrics.scatter_us);
    WorkerPool::Shared().ParallelFor(tn, [&](size_t i) {
      const int s = targets[i];
      ScopedDeadline scoped(deadline);
      if (FaultHit f = CheckFault("shard.execute");
          f.kind == FaultHit::Kind::kError) {
        statuses[i] = f.error;
        return;
      }
      if (deadline.Expired()) {
        statuses[i] = DeadlineExceeded("shard.execute");
        return;
      }
      Result<sqldb::QueryResult> r =
          backend_->shard(s)->Execute(shard_sessions_[s].get(), partial_sql);
      if (r.ok()) {
        partials[i] = std::move(r).value();
      } else {
        statuses[i] = r.status();
      }
    });
  }
  // One failed shard fails the query with shard context; reporting the
  // lowest shard index keeps the error deterministic when several fail.
  for (size_t i = 0; i < tn; ++i) {
    if (!statuses[i].ok()) {
      metrics.errors->Increment();
      return Status(statuses[i].code(),
                    StrCat("shard ", std::to_string(targets[i]), "/",
                           std::to_string(n), ": ", statuses[i].message()));
    }
  }
  if (FaultHit f = CheckFault("shard.gather");
      f.kind == FaultHit::Kind::kError) {
    metrics.errors->Increment();
    return f.error;
  }
  if (deadline.Expired()) {
    metrics.errors->Increment();
    return DeadlineExceeded("shard.gather");
  }

  // Gather: concatenate the partials, in shard order, into the merge
  // session's temp table. Shard order is part of the contract only until
  // the merge sorts; every merge plan orders by explicit keys (ordcol
  // tiebreak or group keys), so concatenation order never leaks into
  // results.
  size_t total_rows = 0;
  for (const sqldb::QueryResult& p : partials) total_rows += p.data.row_count;
  metrics.partial_rows->Increment(total_rows);
  Result<sqldb::QueryResult> merged = merge_db_.ExecuteOverParts(
      merge_session_.get(), kShardPartialsTable, partials, t.shard.merge_sql,
      metrics.merge_us);
  if (!merged.ok()) {
    metrics.errors->Increment();
    return merged.status();
  }
  metrics.scatter->Increment();
  return merged;
}

std::string ShardedGateway::Describe() const {
  return StrCat("sharded(", std::to_string(backend_->num_shards()),
                " shards)");
}

}  // namespace shard
}  // namespace hyperq
