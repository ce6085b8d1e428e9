#ifndef HYPERQ_SHARD_SHARDED_BACKEND_H_
#define HYPERQ_SHARD_SHARDED_BACKEND_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/gateway.h"
#include "qval/qvalue.h"
#include "sqldb/database.h"
#include "xformer/shard_rewrite.h"

namespace hyperq {
namespace shard {

/// A hash-partitioned fleet of in-process sqldb backends plus a full copy
/// ("fallback") that serves everything the scatter path cannot: setup SQL,
/// non-decomposable queries, and tables that are not partitioned. This is
/// the paper's scale-out deployment shape (§6: Hyper-Q fronting an MPP
/// backend) collapsed into one process so the distributed merge logic can
/// be tested byte-for-byte against a single backend.
///
/// Partitioning preserves the ordcol linchpin: every shard keeps the rows'
/// global ordcol values, so a merge that orders by ordcol reconstructs the
/// exact single-backend row order.
class ShardedBackend {
 public:
  struct Options {
    int num_shards = 2;
    /// Tables containing this column are hash-partitioned on it at load
    /// time (the TAQ tables of §2.1 partition by symbol); tables without
    /// it stay fallback-only.
    std::string default_partition_column = "Symbol";
  };

  explicit ShardedBackend(int num_shards)
      : ShardedBackend(Options{num_shards, "Symbol"}) {}
  explicit ShardedBackend(Options options);

  /// Loads a Q table into the fallback backend (via the ordcol loader) and,
  /// when the table carries the default partition column, splits it across
  /// the shards by hash of that column.
  Status LoadQTable(const std::string& name, const QValue& table,
                    const std::vector<std::string>& key_columns = {});

  /// Same, but partitions on an explicit column ("" = fallback-only).
  Status LoadQTablePartitioned(const std::string& name, const QValue& table,
                               const std::string& partition_column,
                               const std::vector<std::string>& key_columns = {});

  int num_shards() const { return static_cast<int>(shards_.size()); }
  sqldb::Database* fallback() { return &fallback_; }
  sqldb::Database* shard(int i) { return shards_[i].get(); }

  /// Partitioning metadata the translator's shard planner consumes;
  /// nullopt for unpartitioned (or unknown) tables.
  std::optional<ShardTableInfo> TableInfo(const std::string& table) const;

  /// Rows landed on shard `i` for `table` (0 for unpartitioned tables);
  /// exposes the skew that the scatter tests exercise.
  size_t ShardRowCount(const std::string& table, int i) const;

 private:
  Options options_;
  sqldb::Database fallback_;
  std::vector<std::unique_ptr<sqldb::Database>> shards_;
  std::map<std::string, std::string> partitioned_;  ///< table -> column
};

/// The scatter-gather gateway: routes plain SQL to the fallback backend
/// (exactly like DirectGateway) and decomposable translated queries to all
/// shards in parallel, merging the partials with the plan's merge SQL over
/// the session-local `__hq_partials` temp table. Deadlines propagate into
/// every shard task and the `shard.execute` / `shard.gather` fault sites
/// cover the distributed failure modes.
class ShardedGateway : public BackendGateway {
 public:
  explicit ShardedGateway(ShardedBackend* backend);

  Result<sqldb::QueryResult> Execute(const std::string& sql) override;
  Result<sqldb::QueryResult> ExecuteTranslated(const Translation& t) override;

  std::optional<ShardTableInfo> ShardInfo(
      const std::string& table) const override {
    return backend_->TableInfo(table);
  }

  sqldb::Database* database() override { return backend_->fallback(); }
  sqldb::Session* session() override { return fallback_session_.get(); }

  std::string Describe() const override;

 private:
  /// Scatters the partial query, concatenates the shard results into
  /// `__hq_partials`, and runs the merge query over them.
  Result<sqldb::QueryResult> ScatterGather(const Translation& t);

  ShardedBackend* backend_;
  std::unique_ptr<sqldb::Session> fallback_session_;
  std::vector<std::unique_ptr<sqldb::Session>> shard_sessions_;
  /// A dedicated empty database scopes the merge: merge SQL may only see
  /// the partials temp table, never a base table by accident.
  sqldb::Database merge_db_;
  std::unique_ptr<sqldb::Session> merge_session_;
};

}  // namespace shard
}  // namespace hyperq

#endif  // HYPERQ_SHARD_SHARDED_BACKEND_H_
