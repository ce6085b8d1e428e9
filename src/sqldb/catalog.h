#ifndef HYPERQ_SQLDB_CATALOG_H_
#define HYPERQ_SQLDB_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "sqldb/ast.h"
#include "sqldb/relation.h"
#include "sqldb/types.h"

namespace hyperq {
namespace sqldb {

struct TableColumn {
  std::string name;
  SqlType type = SqlType::kText;
};

/// A stored table: schema plus columnar data. Column buffers are shared
/// with scans by reference (shared_ptr); all mutation goes through
/// AppendRow, which clones a shared buffer first (copy-on-write), so
/// result sets handed out earlier never see later inserts.
struct StoredTable {
  std::string name;
  std::vector<TableColumn> columns;
  /// Column data, index-aligned with `columns`.
  std::vector<ColumnPtr> data;
  size_t row_count = 0;
  /// Declared key columns (advisory, used by the binder for keyed tables).
  std::vector<std::string> key_columns;

  int FindColumn(const std::string& name) const;

  /// Creates empty column buffers for any schema column that lacks one.
  void EnsureColumns();
  /// Appends one row (copy-on-write on shared column buffers).
  void AppendRow(const std::vector<Datum>& row);
  std::vector<Datum> RowAt(size_t row) const;
};

/// Concatenates column parts that share `schema`: column c of the result
/// is a fresh buffer of type schema[c].type holding parts[0][c],
/// parts[1][c], ... in order (a part without column c contributes no
/// rows). The one place column parts become one table: the ingest tail,
/// its flush, the hybrid merged snapshot and the partial gathers.
std::vector<ColumnPtr> ConcatColumns(
    const std::vector<TableColumn>& schema,
    const std::vector<const std::vector<ColumnPtr>*>& parts);

struct StoredView {
  std::string name;
  SelectPtr select;  ///< The defining query.
};

/// The system catalog: named tables and views. Temporary objects live in a
/// per-session overlay (see Database::Session); this is the shared, durable
/// part. Thread-safe via a coarse mutex — matching kdb+'s one-request-at-a-
/// time execution model (§2.2), fine-grained concurrency is out of scope.
class Catalog {
 public:
  Status CreateTable(StoredTable table, bool or_replace = false);
  Status DropTable(const std::string& name, bool if_exists);
  Result<std::shared_ptr<StoredTable>> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  Status CreateView(StoredView view, bool or_replace);
  Status DropView(const std::string& name, bool if_exists);
  Result<StoredView> GetView(const std::string& name) const;
  bool HasView(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Appends rows to an existing table (INSERT path).
  Status AppendRows(const std::string& name,
                    std::vector<std::vector<Datum>> rows);

  /// Appends whole column batches to an existing table — the ingest flush
  /// path. `cols` must be index-aligned with the table's schema and all of
  /// length `rows`. Copy-on-write like AppendRows, so readers holding the
  /// previous StoredTable snapshot are never disturbed. Leaves the global
  /// version alone: a data flush changes no schema, so the
  /// schema-dependent translation cache stays valid.
  Status AppendColumns(const std::string& name, std::vector<ColumnPtr> cols,
                       size_t rows);

  /// Monotonic version counter bumped by every DDL/DML change; the
  /// metadata cache uses it for invalidation (§6).
  uint64_t version() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<StoredTable>> tables_;
  std::map<std::string, StoredView> views_;
  uint64_t version_ = 0;
};

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_CATALOG_H_
