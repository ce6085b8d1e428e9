#ifndef HYPERQ_INGEST_HYBRID_GATEWAY_H_
#define HYPERQ_INGEST_HYBRID_GATEWAY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/gateway.h"
#include "ingest/ingest.h"
#include "sqldb/database.h"
#include "xformer/shard_rewrite.h"

namespace hyperq {
namespace ingest {

/// The read side of real-time ingest (docs/INGEST.md): a gateway that
/// serves queries over tables whose rows live partly in the historical
/// backend and partly in the IngestStore's in-memory tail. ShardInfo
/// reports each live table as an unkeyed two-part shard, so the plan in
/// Translation::shard splits it. Three paths, chosen per translated query:
///
///   - plain: no referenced table has tail rows — execute as-is (tier-1
///     behavior, including fused kernels).
///   - split: the plan splits the one live table — run the partial SQL
///     over the pinned tail (shadowed into the session under the table's
///     name), then over the historical catalog, and recombine with the
///     merge SQL. The tail pin holds the table's flush epoch shared, so a
///     concurrent flush can never double- or zero-count rows.
///   - merged: every other shape (as-of joins spanning the flush boundary,
///     windows, multi-table queries) — execute against one consistent
///     historical+tail snapshot shadowed into the session, byte-identical
///     to a bulk-loaded table by the order-column construction.
///
/// Kernel-shaped reads on both shadowing paths still run on fused kernels:
/// the kernel registry runs the catalog-compiled plan over a shadow whose
/// schema and storage classes match (GuardOk).
class HybridGateway : public BackendGateway {
 public:
  /// Non-owning: the store outlives the gateway and is shared by every
  /// connection's gateway (one tail, many readers).
  HybridGateway(sqldb::Database* db, IngestStore* store);

  Result<sqldb::QueryResult> Execute(const std::string& sql) override;
  Result<sqldb::QueryResult> ExecuteTranslated(const Translation& t) override;

  std::optional<ShardTableInfo> ShardInfo(
      const std::string& table) const override {
    if (!store_->IsLive(table)) return std::nullopt;
    return ShardTableInfo{kLivePartitionColumn};
  }
  LiveStore* live_store() override { return store_; }
  sqldb::Database* database() override { return db_; }
  sqldb::Session* session() override { return session_.get(); }
  void ForEachDatabase(
      const std::function<void(sqldb::Database*)>& fn) override;
  std::string Describe() const override { return "hybrid(ingest+sqldb)"; }

 private:
  /// Live tables with tail rows that `sql` references and the session does
  /// not already shadow with a temp table.
  std::vector<std::string> ReferencedLiveTables(const std::string& sql) const;

  Result<sqldb::QueryResult> SplitExecute(const Translation& t);
  Result<sqldb::QueryResult> MergedExecute(
      const Translation& t, const std::vector<std::string>& live);

  sqldb::Database* db_;
  IngestStore* store_;
  std::unique_ptr<sqldb::Session> session_;  ///< translator and partials
  sqldb::Database merge_db_;                 ///< merge-query engine
  std::unique_ptr<sqldb::Session> merge_session_;
};

}  // namespace ingest
}  // namespace hyperq

#endif  // HYPERQ_INGEST_HYBRID_GATEWAY_H_
