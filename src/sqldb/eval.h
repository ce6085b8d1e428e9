#ifndef HYPERQ_SQLDB_EVAL_H_
#define HYPERQ_SQLDB_EVAL_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sqldb/ast.h"
#include "sqldb/relation.h"

namespace hyperq {
namespace sqldb {

/// The column of one relation schema each bound column reference reads,
/// or the bind error that evaluating the reference raises (so errors
/// surface where per-row name resolution raised them). Built once per
/// SELECT block and per join's ON residual; evaluation only reads it.
struct Binding {
  std::unordered_map<const Expr*, Result<int>> columns;

  Result<int> Find(const Expr& ref) const;
  /// Renumbers the columns after a narrowing that keeps the columns `kept`
  /// marks, every bound one among them.
  void Narrow(const std::vector<uint8_t>& kept);
};

/// Binds every column reference under `exprs` (window specs included)
/// against `schema` through a by-name index built once, into *out.
/// Returns one flag per schema column: whether a reference reads it.
std::vector<uint8_t> BindColumns(const std::vector<const Expr*>& exprs,
                                 const Relation& schema, Binding* out);

/// Evaluation context for one row of a relation. `binding` maps the column
/// references evaluated to columns of `rel`; `agg_values` supplies
/// pre-computed results for aggregate nodes (grouped execution) keyed by
/// node identity; `window_values` supplies each window node's column of
/// per-row results.
struct EvalCtx {
  const Relation* rel = nullptr;
  size_t row_idx = 0;
  const Binding* binding = nullptr;
  const std::unordered_map<const Expr*, Datum>* agg_values = nullptr;
  const std::unordered_map<const Expr*, ColumnPtr>* window_values = nullptr;
};

/// Evaluates an expression under SQL three-valued logic (contrast with the
/// Q engine's 2-valued logic — bridging the two is the Xformer's job, §3.3).
Result<Datum> EvalExpr(const Expr& e, const EvalCtx& ctx);

/// Context for columnar (batch) expression evaluation. `agg_rows`, when
/// set, supplies one aggregate-value map per row of `rel` (grouped
/// projection/HAVING, where every output row is a group).
struct BatchCtx {
  const Relation* rel = nullptr;
  const Binding* binding = nullptr;
  const std::vector<std::unordered_map<const Expr*, Datum>>* agg_rows =
      nullptr;
  const std::unordered_map<const Expr*, ColumnPtr>* window_values = nullptr;
};

/// Evaluates e over rows sel[0..n) of ctx.rel (sel == nullptr means rows
/// [0, n)) into a column of n results. Comparisons, arithmetic and boolean
/// logic run as type-specialized loops; a leaf predicate over a stored
/// column (`col op literal`, `[NOT] IN`, `BETWEEN`, `IS [NOT] NULL`) reads
/// that column in place, and a cast of a literal is folded once. Other
/// nodes fall back to EvalExpr per row. Rows are processed in ascending
/// order, so the first failing row's error is returned, like the
/// row-at-a-time path.
Result<ColumnPtr> EvalBatch(const Expr& e, const BatchCtx& ctx,
                            const uint32_t* sel, size_t n);

/// Filter evaluation: appends to *out the rows among sel[0..n) (ascending)
/// where e evaluates TRUE. A leaf predicate writes its survivors straight
/// into *out. AND/OR narrow the candidate rows the way short-circuit
/// evaluation does — every (row, subexpression) pair that can fail is
/// evaluated exactly when EvalExpr row by row evaluates it, so
/// data-dependent errors surface on the same rows.
Status EvalFilter(const Expr& e, const BatchCtx& ctx, const uint32_t* sel,
                  size_t n, SelVector* out);

/// Casts a datum to a target type (CAST / '::' semantics).
Result<Datum> CastDatum(const Datum& d, SqlType target);

/// True when the datum is boolean-true (non-null and non-zero).
bool DatumIsTrue(const Datum& d);

/// Collects aggregate call nodes (FuncCall with aggregate name) from an
/// expression tree; does not descend into window specs.
void CollectAggregates(const ExprPtr& e, std::vector<const Expr*>* out);

/// Collects window nodes from an expression tree.
void CollectWindows(const ExprPtr& e, std::vector<const Expr*>* out);

/// True if the function name denotes an aggregate.
bool IsAggregateFunction(const std::string& lower_name);

/// Computes one aggregate over the given member rows of a relation, whose
/// argument's column references `binding` binds.
Result<Datum> ComputeAggregate(const Expr& agg, const Relation& rel,
                               const Binding& binding,
                               const std::vector<size_t>& member_rows);

/// Columnar variant: the aggregate's argument has already been evaluated
/// into `arg_col`, indexed by the same row ids as `member_rows`. Semantics
/// (NULL skipping, DISTINCT, member-order float accumulation) are identical
/// to ComputeAggregate. Not valid for COUNT(*) (no argument).
Result<Datum> ComputeAggregateColumnar(const Expr& agg, const Column& arg_col,
                                       const SelVector& member_rows);

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_EVAL_H_
