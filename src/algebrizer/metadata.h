#ifndef HYPERQ_ALGEBRIZER_METADATA_H_
#define HYPERQ_ALGEBRIZER_METADATA_H_

#include <string>
#include <vector>

#include "common/sql_markers.h"
#include "common/status.h"
#include "qval/qtype.h"

namespace hyperq {

/// Name of the implicit order column Hyper-Q adds to backend tables to
/// preserve Q's ordered-list semantics in SQL (§2.2, §3.3). Shared with
/// the backend kernel's sort elision via sql_markers.h.
inline constexpr const char* kOrdColName = kSqlOrdColName;

struct ColumnMetadata {
  std::string name;
  QType type = QType::kUnary;
};

/// Metadata for one backend relation, as retrieved through the MetaData
/// Interface (PG catalog lookups in the paper, §3.2.3). Keys and sort order
/// feed the binder's property derivation (keyed tables for lj, ordering).
struct TableMetadata {
  std::string name;
  std::vector<ColumnMetadata> columns;  ///< excludes the ordcol
  std::vector<std::string> key_columns;
  std::vector<std::string> sort_keys;
  bool has_ordcol = false;

  const ColumnMetadata* FindColumn(const std::string& col) const {
    for (const auto& c : columns) {
      if (c.name == col) return &c;
    }
    return nullptr;
  }
};

/// The MDI: resolves server-scope variables to backend catalog objects.
/// Implementations: the direct sqldb-backed MDI and the caching decorator
/// (core/metadata_cache.h) whose effect Figure 6's setup enables.
class MetadataInterface {
 public:
  virtual ~MetadataInterface() = default;

  virtual Result<TableMetadata> LookupTable(const std::string& name) = 0;
  virtual bool HasTable(const std::string& name) = 0;
};

}  // namespace hyperq

#endif  // HYPERQ_ALGEBRIZER_METADATA_H_
