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
/// Translation::shard splits it. Each query takes one IngestStore snapshot
/// per live table it references, and the split and merged paths read a
/// table with tail rows only through its snapshot, so a concurrent flush
/// can never double- or zero-count rows. Three paths, chosen per
/// translated query:
///
///   - plain: no snapshot has a tail — execute as-is (tier-1 behavior).
///   - split: the plan splits the one live table — run the partial SQL
///     over the snapshot's tail, then over its historical part (each
///     shadowed into the session under the table's name), and recombine
///     with the merge SQL.
///   - merged: every other shape (as-of joins spanning the flush boundary,
///     windows, multi-table queries) — execute against the concatenation
///     of each snapshot's two parts shadowed into the session,
///     byte-identical to a bulk-loaded table by the order-column
///     construction.
///
/// Every shadow is a session temp table, which the executor scans in place
/// like a catalog table: the shadows add no copy beyond the snapshot's.
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
  std::string Describe() const override { return "hybrid(ingest+sqldb)"; }

 private:
  /// A live table a query reads, with the snapshot it reads it from.
  struct LiveRead {
    std::string table;
    IngestStore::TableSnapshot snap;
  };

  /// Snapshots of the live tables with tail rows that `sql` references and
  /// the session does not already shadow with a temp table.
  Result<std::vector<LiveRead>> ReferencedLiveTables(
      const std::string& sql) const;

  Result<sqldb::QueryResult> SplitExecute(const Translation& t,
                                          const LiveRead& live);
  Result<sqldb::QueryResult> MergedExecute(const Translation& t,
                                           const std::vector<LiveRead>& live);

  sqldb::Database* db_;
  IngestStore* store_;
  std::unique_ptr<sqldb::Session> session_;  ///< translator and partials
  sqldb::Database merge_db_;                 ///< merge-query engine
  std::unique_ptr<sqldb::Session> merge_session_;
};

}  // namespace ingest
}  // namespace hyperq

#endif  // HYPERQ_INGEST_HYBRID_GATEWAY_H_
