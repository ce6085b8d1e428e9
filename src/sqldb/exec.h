#ifndef HYPERQ_SQLDB_EXEC_H_
#define HYPERQ_SQLDB_EXEC_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sqldb/ast.h"
#include "sqldb/catalog.h"
#include "sqldb/eval.h"
#include "sqldb/relation.h"
#include "sqldb/session.h"

namespace hyperq {
namespace sqldb {

/// Executes SELECT statements against the catalog and a session's temporary
/// objects. Execution is fully materialized: FROM (scans/joins) -> WHERE ->
/// GROUP BY/HAVING -> window functions -> projection -> DISTINCT ->
/// ORDER BY -> LIMIT, with UNION ALL combining core results.
///
/// Joins use a hash join on the equality conjuncts of the ON clause
/// (including null-safe IS NOT DISTINCT FROM keys, which Hyper-Q emits to
/// impose Q's 2-valued null logic, §3.3) and fall back to nested loops.
class Executor {
 public:
  Executor(Catalog* catalog, Session* session)
      : catalog_(catalog), session_(session) {}

  Result<Relation> ExecuteSelect(const SelectStmt& stmt);

 private:
  /// Everything except UNION ALL / final ORDER BY / LIMIT.
  struct CoreResult {
    Relation output;
    /// The pre-projection relation and per-row aggregate values, kept so
    /// ORDER BY can reference input expressions.
    Relation work;
    std::vector<std::unordered_map<const Expr*, Datum>> agg_per_row;
    std::unordered_map<const Expr*, ColumnPtr> window_values;
    /// The block's column references, bound against `work`'s schema.
    Binding binding;
    bool distinct_applied = false;
  };
  Result<CoreResult> ExecCore(const SelectStmt& stmt);

  /// The FROM relation of `stmt`, holding only the columns the statement
  /// reads: binds every clause into *binding and expands the select list's
  /// stars into `items`.
  Result<Relation> Scan(const SelectStmt& stmt, Binding* binding,
                        std::vector<SelectItem>* items);
  /// A FROM item's relation. With `table` set, a stored table comes back as
  /// its schema alone and *table as the table, whose columns the caller
  /// shares.
  Result<Relation> EvalTableRef(const TableRef& ref,
                                std::shared_ptr<StoredTable>* table);
  Result<Relation> LookupNamed(const std::string& name,
                               const std::string& alias,
                               std::shared_ptr<StoredTable>* stored);
  Result<Relation> ExecJoin(const TableRef& join);

  /// Computes each window node's column over ctx.rel (window values
  /// unset: a window inside another's arguments is an error).
  Status ComputeWindows(const std::vector<const Expr*>& nodes,
                        const BatchCtx& ctx,
                        std::unordered_map<const Expr*, ColumnPtr>* out);

  /// Sorts the output and keeps its LIMIT/OFFSET window.
  Status ApplyOrderBy(const SelectStmt& stmt, CoreResult* core);

  Catalog* catalog_;
  Session* session_;
  int view_depth_ = 0;
};

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_EXEC_H_
