#ifndef HYPERQ_ALGEBRIZER_METADATA_H_
#define HYPERQ_ALGEBRIZER_METADATA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sql_markers.h"
#include "common/status.h"
#include "qval/qtype.h"

namespace hyperq {

/// Name of the implicit order column Hyper-Q adds to backend tables to
/// preserve Q's ordered-list semantics in SQL (§2.2, §3.3). Shared with
/// the backend's sort elision via sql_markers.h.
inline constexpr const char* kOrdColName = kSqlOrdColName;

struct ColumnMetadata {
  std::string name;
  QType type = QType::kUnary;
};

/// Metadata for one backend relation, as retrieved through the MetaData
/// Interface (PG catalog lookups in the paper, §3.2.3). Keys and sort order
/// feed the binder's property derivation (keyed tables for lj, ordering).
struct TableMetadata {
  /// Indexes `columns` by name once, here, so every producer gets the
  /// binder's by-name lookup without a scan of the width.
  TableMetadata(std::string table_name, std::vector<ColumnMetadata> cols)
      : name(std::move(table_name)), columns(std::move(cols)) {
    column_index_.reserve(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      column_index_.emplace(columns[i].name, i);
    }
  }

  std::string name;
  const std::vector<ColumnMetadata> columns;  ///< excludes the ordcol
  std::vector<std::string> key_columns;
  bool has_ordcol = false;

  /// Position of `col` in `columns`, or -1.
  int ColumnIndex(const std::string& col) const {
    auto it = column_index_.find(col);
    return it == column_index_.end() ? -1 : static_cast<int>(it->second);
  }

 private:
  std::unordered_map<std::string, size_t> column_index_;
};

/// Metadata is immutable once loaded: the cache hands out one shared copy
/// per table instead of copying every column per reference.
using TableMetadataPtr = std::shared_ptr<const TableMetadata>;

/// The MDI: resolves server-scope variables to backend catalog objects.
/// Implementations: the direct sqldb-backed MDI and the caching decorator
/// (core/metadata_cache.h) whose effect Figure 6's setup enables.
class MetadataInterface {
 public:
  virtual ~MetadataInterface() = default;

  virtual Result<TableMetadataPtr> LookupTable(const std::string& name) = 0;
  virtual bool HasTable(const std::string& name) = 0;
};

}  // namespace hyperq

#endif  // HYPERQ_ALGEBRIZER_METADATA_H_
