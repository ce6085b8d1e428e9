#ifndef HYPERQ_SQLDB_KERNEL_H_
#define HYPERQ_SQLDB_KERNEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sqldb/ast.h"
#include "sqldb/catalog.h"
#include "sqldb/operators.h"
#include "sqldb/relation.h"
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
/// — a compiled KernelPlan instead fuses the same operators into one
/// morsel-at-a-time loop over the base columns: typed comparators test each
/// row in place, survivors feed the shared group table directly (no
/// intermediate SelVector or gathered relation), and the shared reducer runs
/// straight off the stored column buffers.
/// Plans are cached in the per-database KernelRegistry keyed by a statement
/// fingerprint with literals lifted to `$k` slots, so statements that differ
/// only in literal values share one kernel.
///
/// Everything a kernel produces is byte-identical to the interpreted
/// executor, including the PR 3 determinism rules: morsel-ordered merges,
/// first-occurrence group order, and member-order (ascending row)
/// floating-point accumulation. Any shape outside the supported set must be
/// rejected at fingerprint/compile time so the interpreted path also keeps
/// ownership of its error surface (e.g. data-dependent comparison type
/// errors).

/// A statement identity for the kernel cache. `text` is a deterministic
/// rendering of the SELECT with every literal replaced by a `$<class>` slot
/// (classes: i = integral/bool/temporal, f = float, s = string, n = NULL);
/// `params` carries the literal values of this instance in slot order.
/// Statements that differ only in literal values of the same class share
/// `text` — and therefore share one compiled kernel.
struct KernelFingerprint {
  bool supported = false;
  std::string text;
  uint64_t hash = 0;
  std::string table;  ///< unqualified base-table name (shadow checks)
  std::vector<Datum> params;
  /// On rejection: a short stable label for the first construct outside the
  /// kernel grammar ("subquery", "order_by", "predicate", ...), surfaced as
  /// a `kernel.reject.<reason>` counter by the registry. nullptr when
  /// supported.
  const char* reject_reason = nullptr;
};

/// Classifies `stmt`. The kernel takes one flat single-table SELECT; the
/// serializer emits the translator's hot shapes in that form.
/// supported=false when the statement uses any construct outside the
/// fused-kernel shape (derived tables, joins, windows, DISTINCT, OR-filters
/// other than `OR col IS NULL`, computed expressions, HAVING, UNION,
/// non-colref group keys,
/// unsupported aggregates, qualified/expression ORDER BY keys, non-constant
/// LIMIT, ...). The walk is catalog-free: column existence and type-class
/// checks happen at compile.
KernelFingerprint KernelFingerprintFor(const SelectStmt& stmt);

/// A compiled, type-specialized execution plan for one fingerprint against
/// one catalog schema version. Immutable after Compile; safe to share
/// across threads.
class KernelPlan {
 public:
  /// How a filter comparison is evaluated, fixed at compile time from the
  /// column's storage class and the literal's fingerprint class so the
  /// per-row loop carries no type dispatch.
  enum class CmpMode : uint8_t {
    kIntInt,     ///< int column vs integral literal: int64 compare
    kIntDouble,  ///< int column vs float literal: compare as double
    kDouble,     ///< float column vs numeric literal: compare as double
    kString,     ///< string column vs string literal
    kNever,      ///< NULL literal or all-NULL (kEmpty) column: never true
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
    CmpMode mode = CmpMode::kNever;     ///< kCmp
    CmpMode lo_mode = CmpMode::kNever;  ///< kBetween: lo vs value
    CmpMode hi_mode = CmpMode::kNever;  ///< kBetween: value vs hi
    int p0 = -1;  ///< param slot (kCmp literal / kBetween lo); kInList: index
                  ///< into in_lists_
    int p1 = -1;  ///< param slot (kBetween hi)
  };

  /// Literal membership list for one kInList predicate. Per-item compare
  /// modes are fixed at compile time; NULL or class-mismatched items can
  /// never equal a non-NULL cell (Datum::DistinctEquals never errors), so
  /// they only matter through `has_null_item` (NOT IN with a NULL item
  /// matches no row, IN falls back to per-item equality).
  struct InList {
    std::vector<CmpMode> modes;  ///< one per item (kNever for NULL/mismatch)
    std::vector<int> slots;      ///< param slot per item
    bool has_null_item = false;
  };

  struct Agg {
    /// The statement's call node (never DISTINCT), read by the shared
    /// reducer, so every accumulator is the interpreter's by construction.
    ExprPtr call;
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
    std::string name;  ///< OutputName(): alias | column | function name
    SqlType type = SqlType::kText;  ///< static InferType (pre-refinement)
  };

  /// Compiles the fingerprinted statement against the current catalog.
  /// Errors mean "this shape/schema combination is not kernel-runnable"
  /// (negative-cacheable), never a user-visible failure.
  static Result<std::shared_ptr<const KernelPlan>> Compile(
      const SelectStmt& stmt, const Catalog& catalog);

  /// True when `table` still matches the schema the plan was compiled
  /// against (column count, names, declared types, storage classes). Any
  /// table that passes may be executed: the catalog table the plan was
  /// compiled from, a newer same-schema version of it, or a session temp
  /// table shadowing it.
  bool GuardOk(const StoredTable& table) const;

  /// Runs the fused loop over the table's columns with the fingerprint's
  /// literal values spliced into the predicate slots. The only possible
  /// error is deadline expiry (mirroring the interpreted executor's
  /// morsel-boundary cancellation); everything else was rejected at
  /// compile time. `table` must pass GuardOk.
  Result<Relation> Execute(const StoredTable& table,
                           const std::vector<Datum>& params) const;

  const std::string& table_name() const { return table_name_; }

 private:
  KernelPlan() = default;

  Result<Relation> ExecuteGrouped(const StoredTable& table,
                                  const std::vector<Datum>& params) const;
  Result<Relation> ExecuteProject(const StoredTable& table,
                                  const std::vector<Datum>& params) const;
  /// The interpreter's ORDER BY and LIMIT operators over the built output
  /// relation (SortPermutation, then LimitWindow). `scan_ordered` skips the
  /// sort.
  Result<Relation> ApplyOrderAndLimit(Relation out,
                                      const std::vector<Datum>& params,
                                      bool scan_ordered) const;
  /// True when the ORDER BY is already satisfied by scan order: no keys,
  /// or the elided key's column in `table` is the verified buffer.
  bool ScanOrdered(const StoredTable& table) const;

  std::string table_name_;
  /// Compile-time schema snapshot for GuardOk.
  std::vector<TableColumn> schema_;
  std::vector<Column::Storage> storages_;

  std::vector<Pred> preds_;
  std::vector<InList> in_lists_;
  bool grouped_ = false;  ///< aggregate path vs projection path
  std::vector<int> group_cols_;
  std::vector<Item> items_;

  /// ORDER BY keys resolved to output item indices.
  std::vector<SortKey> order_keys_;
  /// Sort elision (see Compile): when the lone ascending ORDER BY key is a
  /// column whose compile-time buffer was verified sorted and NULL-free,
  /// that column and buffer. A stable sort of it is the identity, so
  /// Execute skips the sort, but only over this very buffer; any other
  /// buffer (a temp-table shadow, a swapped catalog table) is sorted.
  /// weak_ptr: a freed buffer cannot pass for a new one at its address.
  int elided_col_ = -1;
  std::weak_ptr<const Column> elided_col_ptr_;
  bool has_limit_ = false;
  bool has_offset_ = false;
  int limit_slot_ = -1;
  int offset_slot_ = -1;
};

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_KERNEL_H_
