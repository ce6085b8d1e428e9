#ifndef HYPERQ_CORE_GATEWAY_H_
#define HYPERQ_CORE_GATEWAY_H_

#include <memory>
#include <optional>
#include <string>

#include "common/fault.h"
#include "common/status.h"
#include "core/query_translator.h"
#include "sqldb/database.h"

namespace hyperq {

class LiveStore;

/// The Gateway is the PG-side plugin of Figure 1: it carries SQL to the
/// backend and results back. Implementations: an in-process gateway bound
/// directly to the mini PG engine, a wire gateway speaking the PG v3
/// protocol over TCP (protocol/pgwire), and the sharded scatter-gather
/// coordinator (src/shard).
class BackendGateway {
 public:
  virtual ~BackendGateway() = default;

  virtual Result<sqldb::QueryResult> Execute(const std::string& sql) = 0;

  /// Dispatches a fully translated result query. The default ignores the
  /// shard plan and executes the result SQL as-is; a sharded or live
  /// gateway runs the partial SQL over its parts and merges the partials.
  virtual Result<sqldb::QueryResult> ExecuteTranslated(const Translation& t) {
    return Execute(t.result_sql);
  }

  /// Partitioning info for a base table; nullopt when the table is not
  /// split into parts: shards (the hash-partition column) or a live
  /// table's historical rows and tail (kLivePartitionColumn).
  virtual std::optional<ShardTableInfo> ShardInfo(
      const std::string& table) const {
    (void)table;
    return std::nullopt;
  }

  /// The ingest store feeding this gateway's live tables; null when the
  /// gateway serves static tables only.
  virtual LiveStore* live_store() { return nullptr; }

  /// In-process backend handles for metadata lookups and loaders; null
  /// for pure wire gateways.
  virtual sqldb::Database* database() { return nullptr; }
  virtual sqldb::Session* session() { return nullptr; }

  /// Human-readable backend description for logs.
  virtual std::string Describe() const = 0;
};

/// Direct in-process gateway: one backend session per gateway, giving the
/// translator its temp-table namespace.
class DirectGateway : public BackendGateway {
 public:
  explicit DirectGateway(sqldb::Database* db)
      : db_(db), session_(db->CreateSession()) {}

  Result<sqldb::QueryResult> Execute(const std::string& sql) override {
    // The gateway is where a remote backend would fail (connection loss,
    // overload); injected errors here surface as transient kUnavailable so
    // the cross compiler's retry policy sees exactly what a flaky
    // backend-gateway link produces.
    if (FaultHit f = CheckFault("backend.execute");
        f.kind == FaultHit::Kind::kError) {
      return f.error;
    }
    return db_->Execute(session_.get(), sql);
  }

  std::string Describe() const override { return "direct(sqldb)"; }

  sqldb::Session* session() override { return session_.get(); }
  sqldb::Database* database() override { return db_; }

 private:
  sqldb::Database* db_;
  std::unique_ptr<sqldb::Session> session_;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_GATEWAY_H_
