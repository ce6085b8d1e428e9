#ifndef HYPERQ_SQLDB_KERNEL_H_
#define HYPERQ_SQLDB_KERNEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sqldb/ast.h"
#include "sqldb/catalog.h"
#include "sqldb/operators.h"
#include "sqldb/relation.h"
#include "sqldb/session.h"
#include "sqldb/types.h"

namespace hyperq {
namespace sqldb {

/// Fused-kernel execution for hot SELECT shapes (docs/PERFORMANCE.md).
///
/// The interpreted executor (exec.cc/eval.cc) runs the operators of
/// sqldb/operators.h one stage at a time: it evaluates a filter into a
/// SelVector, gathers every table column through it, groups the gathered
/// relation, and only then reduces aggregates. For the simple shapes that
/// dominate hot dashboard traffic —
///
///   SELECT cols / aggs FROM one_table [WHERE conjuncts] [GROUP BY cols]
///
/// — a KernelPlan instead fuses the same operators into one
/// morsel-at-a-time loop over the base columns: typed comparators test each
/// row in place, survivors feed the shared group table directly (no
/// intermediate SelVector or gathered relation), and the shared reducer runs
/// straight off the stored column buffers.
/// A plan is compiled for every SELECT against the one table its FROM
/// name resolves to, with the statement's literal values bound into its
/// predicates; compiling costs about a microsecond, so nothing is cached.
///
/// Everything a kernel produces is byte-identical to the interpreted
/// executor, including the PR 3 determinism rules: morsel-ordered merges,
/// first-occurrence group order, and member-order (ascending row)
/// floating-point accumulation. Any shape outside the supported set must be
/// rejected at compile time so the interpreted path also keeps ownership of
/// its error surface (e.g. data-dependent comparison type errors).

/// Creates every `kernel.*` metric at zero, so `.hyperq.stats[]` lists the
/// full rejection taxonomy before the first SELECT. Database's constructor
/// calls it.
void RegisterKernelMetrics();

/// Runs `stmt` on a fused kernel compiled for it against the table its
/// FROM name resolves to, in the interpreted executor's lookup order: a
/// session temp table, then a catalog table. Returns:
///   - nullopt: not kernel-runnable (a shape outside the kernel grammar,
///     a table the shape does not compile against, a view or unknown name,
///     an armed `backend.kernel` fault) — the caller runs the interpreted
///     executor;
///   - a Result: the kernel ran; an error Result is authoritative
///     (deadline expiry), not a fallback signal.
/// Counted in `kernel.hits` (ran), `kernel.misses` (compiled),
/// `kernel.fallbacks` and `kernel.reject.<reason>`.
std::optional<Result<Relation>> TryKernelSelect(const SelectStmt& stmt,
                                                const Catalog& catalog,
                                                const Session* session);

/// A compiled, type-specialized plan for one SELECT over one table.
class KernelPlan {
 public:
  /// How a filter comparison is evaluated, fixed at compile time from the
  /// column's storage class and the literal's class so the per-row loop
  /// carries no type dispatch.
  enum class CmpMode : uint8_t {
    kIntInt,     ///< int column vs integral literal: int64 compare
    kIntDouble,  ///< int column vs float literal: compare as double
    kDouble,     ///< float column vs numeric literal: compare as double
    kString,     ///< string column vs string literal
    kNever,      ///< NULL literal or all-NULL (kEmpty) column: never true
  };

  /// A literal bound for its compare mode: only the mode's lane is set.
  struct Lit {
    int64_t i = 0;
    double d = 0;
    std::string s;
  };

  struct Pred {
    enum class Kind : uint8_t {
      kCmp,     ///< col op literal [OR col IS NULL]
      kIsNull,
      kBetween,
      kInList,  ///< col [NOT] IN (<literal list>)
      kFalse,   ///< constant FALSE: no row passes
    };
    Kind kind = Kind::kCmp;
    int col = 0;
    /// kCmp operator index: 0 '=', 1 '<>', 2 '<', 3 '>', 4 '<=', 5 '>='
    /// (literal normalized to the right-hand side).
    int op = 0;
    /// kCmp: a NULL cell passes, `((col op lit) OR (col IS NULL))`.
    bool pass_null = false;
    bool negated = false;  ///< IS NOT NULL / NOT BETWEEN / NOT IN
    CmpMode mode = CmpMode::kNever;     ///< kCmp; kBetween: lo vs value
    CmpMode hi_mode = CmpMode::kNever;  ///< kBetween: value vs hi
    Lit lit;                            ///< kCmp literal; kBetween lo
    Lit hi;                             ///< kBetween hi
    /// kInList: one compare mode and literal per item. NULL or
    /// class-mismatched items can never equal a non-NULL cell
    /// (Datum::DistinctEquals never errors), so they are kNever and only
    /// matter through `has_null_item` (NOT IN with a NULL item matches no
    /// row).
    std::vector<CmpMode> item_modes;
    std::vector<Lit> items;
    bool has_null_item = false;
  };

  struct Agg {
    /// The statement's call node (never DISTINCT), read by the shared
    /// reducer, so every accumulator is the interpreter's by construction.
    const Expr* call = nullptr;
    int col = -1;         ///< argument column; -1 for count(*)
    /// What a NULL result becomes: the zero of `COALESCE(SUM(x), 0)`,
    /// or NULL for a bare aggregate.
    Datum if_null;
  };

  /// One output column: either a plain column reference (group key or
  /// representative-row value) or an aggregate.
  struct Item {
    bool is_agg = false;
    int col = -1;  ///< colref items
    Agg agg;
    const std::string* name = nullptr;  ///< alias | column | function name
    SqlType type = SqlType::kText;  ///< static InferType (pre-refinement)
  };

  /// Compiles `stmt`, a single-table SELECT whose FROM name resolves to
  /// `table`; the plan reads `table` and `stmt` and must not outlive
  /// them. On failure returns nullopt and sets `*reject` to the label of
  /// the first construct outside the kernel grammar ("expr", "predicate",
  /// "order_by", ...), or to "compile" when the shape is in the grammar
  /// but `table` does not fit it (an unresolved column, a comparison whose
  /// type classes differ, a mixed-datum or ragged column).
  static std::optional<KernelPlan> Compile(const SelectStmt& stmt,
                                           const StoredTable& table,
                                           const char** reject);

  /// Runs the fused loop. The only possible error is deadline expiry
  /// (mirroring the interpreted executor's morsel-boundary cancellation);
  /// everything else was rejected at compile time.
  Result<Relation> Execute() const;

 private:
  KernelPlan() = default;

  Result<Relation> ExecuteGrouped() const;
  Result<Relation> ExecuteProject() const;
  /// The interpreter's ORDER BY and LIMIT operators over the built output
  /// relation (SortPermutation, then LimitWindow). `scan_ordered` skips the
  /// sort.
  Result<Relation> ApplyOrderAndLimit(Relation out, bool scan_ordered) const;
  /// True when the ORDER BY holds in scan order: no keys, or every key is
  /// a plain column item and the stored columns are already in key order,
  /// so the rows a filter keeps are too.
  bool ScanOrdered() const;

  const StoredTable* table_ = nullptr;
  std::vector<Pred> preds_;
  bool grouped_ = false;  ///< aggregate path vs projection path
  std::vector<int> group_cols_;
  std::vector<Item> items_;

  /// ORDER BY keys resolved to output item indices.
  std::vector<SortKey> order_keys_;
  int64_t limit_ = -1;  ///< -1: no LIMIT
  int64_t offset_ = 0;
};

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_KERNEL_H_
