#include "core/mdi.h"

#include "common/strings.h"

namespace hyperq {

QType QTypeFromSqlType(sqldb::SqlType type) {
  switch (type) {
    case sqldb::SqlType::kBoolean:
      return QType::kBool;
    case sqldb::SqlType::kSmallInt:
      return QType::kShort;
    case sqldb::SqlType::kInteger:
      return QType::kInt;
    case sqldb::SqlType::kBigInt:
      return QType::kLong;
    case sqldb::SqlType::kReal:
      return QType::kReal;
    case sqldb::SqlType::kDouble:
      return QType::kFloat;
    case sqldb::SqlType::kVarchar:
      return QType::kSymbol;
    case sqldb::SqlType::kText:
      return QType::kChar;
    case sqldb::SqlType::kDate:
      return QType::kDate;
    case sqldb::SqlType::kTime:
      return QType::kTime;
    case sqldb::SqlType::kTimestamp:
      return QType::kTimestamp;
    case sqldb::SqlType::kNull:
      return QType::kUnary;
  }
  return QType::kUnary;
}

sqldb::SqlType SqlTypeFromQType(QType type) {
  switch (type) {
    case QType::kBool:
      return sqldb::SqlType::kBoolean;
    case QType::kByte:
    case QType::kShort:
      return sqldb::SqlType::kSmallInt;
    case QType::kInt:
      return sqldb::SqlType::kInteger;
    case QType::kLong:
      return sqldb::SqlType::kBigInt;
    case QType::kReal:
      return sqldb::SqlType::kReal;
    case QType::kFloat:
      return sqldb::SqlType::kDouble;
    case QType::kSymbol:
      return sqldb::SqlType::kVarchar;
    case QType::kChar:
      return sqldb::SqlType::kText;
    case QType::kDate:
      return sqldb::SqlType::kDate;
    case QType::kTime:
      return sqldb::SqlType::kTime;
    case QType::kTimestamp:
      return sqldb::SqlType::kTimestamp;
    case QType::kTimespan:
      return sqldb::SqlType::kBigInt;
    default:
      return sqldb::SqlType::kText;
  }
}

namespace {

/// Metadata for a relation with these backend columns; the ordcol is
/// recorded as a flag, not as a column.
template <typename SqlColumns>
std::shared_ptr<TableMetadata> MetadataFromColumns(
    const std::string& name, const SqlColumns& sql_columns) {
  std::vector<ColumnMetadata> columns;
  bool has_ordcol = false;
  for (const auto& c : sql_columns) {
    if (c.name == kOrdColName) {
      has_ordcol = true;
      continue;
    }
    columns.push_back(ColumnMetadata{c.name, QTypeFromSqlType(c.type)});
  }
  auto meta = std::make_shared<TableMetadata>(name, std::move(columns));
  meta->has_ordcol = has_ordcol;
  return meta;
}

}  // namespace

Result<TableMetadataPtr> SqldbMetadata::LookupTable(const std::string& name) {
  std::shared_ptr<sqldb::StoredTable> table;
  if (session_ != nullptr) {
    auto it = session_->temp_tables().find(name);
    if (it != session_->temp_tables().end()) table = it->second;
  }
  if (!table && ((session_ != nullptr &&
                  session_->temp_views().count(name) > 0) ||
                 db_->catalog().HasView(name))) {
    // Views (logical materialization, §4.3) expose their schema by
    // planning the defining query with LIMIT 0. Results are cached by the
    // MetadataCache decorator, so this executes rarely.
    auto r = db_->Execute(
        session_, StrCat("SELECT * FROM \"", name, "\" LIMIT 0"));
    if (!r.ok()) return r.status();
    return TableMetadataPtr(MetadataFromColumns(name, r->columns));
  }
  if (!table) {
    auto r = db_->catalog().GetTable(name);
    if (!r.ok()) {
      return NotFound(StrCat("metadata lookup failed: relation '", name,
                             "' does not exist in the backend catalog"));
    }
    table = std::move(r).value();
  }
  auto meta = MetadataFromColumns(name, table->columns);
  meta->key_columns = table->key_columns;
  return TableMetadataPtr(std::move(meta));
}

bool SqldbMetadata::HasTable(const std::string& name) {
  if (session_ != nullptr && (session_->temp_tables().count(name) > 0 ||
                              session_->temp_views().count(name) > 0)) {
    return true;
  }
  return db_->catalog().HasTable(name) || db_->catalog().HasView(name);
}

}  // namespace hyperq
