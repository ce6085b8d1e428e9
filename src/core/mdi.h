#ifndef HYPERQ_CORE_MDI_H_
#define HYPERQ_CORE_MDI_H_

#include "algebrizer/metadata.h"
#include "sqldb/database.h"

namespace hyperq {

/// Maps a backend SQL type to Hyper-Q's (Q-flavoured) type system.
QType QTypeFromSqlType(sqldb::SqlType type);
/// Maps a Q type to the backend column type used when materializing.
sqldb::SqlType SqlTypeFromQType(QType type);

/// MetaData Interface backed by the mini PG database's catalog: the
/// "PG MDI" at the bottom of the scope hierarchy in Figure 3. Session temp
/// tables (Hyper-Q's materialized variables) resolve before shared tables.
class SqldbMetadata : public MetadataInterface {
 public:
  SqldbMetadata(sqldb::Database* db, sqldb::Session* session)
      : db_(db), session_(session) {}

  Result<TableMetadataPtr> LookupTable(const std::string& name) override;
  bool HasTable(const std::string& name) override;

  /// Catalog version for cache invalidation.
  uint64_t CatalogVersion() const { return db_->catalog().version(); }

 private:
  sqldb::Database* db_;
  sqldb::Session* session_;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_MDI_H_
