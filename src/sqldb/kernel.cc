#include "sqldb/kernel.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/status.h"
#include "sqldb/eval.h"
#include "sqldb/exec.h"
#include "sqldb/operators.h"

namespace hyperq {
namespace sqldb {
namespace {

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// A literal's class for the compare-mode matrix: i = integral, boolean or
/// temporal, f = float, s = string, n = NULL.
char ClassOf(const Datum& d) {
  if (d.is_null()) return 'n';
  if (IsStringType(d.type())) return 's';
  if (d.type() == SqlType::kReal || d.type() == SqlType::kDouble) return 'f';
  return 'i';
}

/// Folds a literal operand to a Datum: plain constants, unary minus over
/// numeric constants (parsers spell -5 as -(5)), and casts of constants
/// (the serializer spells every literal with an explicit type,
/// 'MSFT'::varchar). The fold matches what per-row evaluation of the same
/// subtree produces; a cast that would error stays unfolded so the
/// interpreter keeps ownership of the error.
bool FoldLiteral(const Expr& e, Datum* out) {
  if (e.kind == ExprKind::kConst) {
    *out = e.datum;
    return true;
  }
  if (e.kind == ExprKind::kCast && e.lhs != nullptr) {
    Datum inner;
    if (!FoldLiteral(*e.lhs, &inner)) return false;
    Result<Datum> cast = CastDatum(inner, e.cast_type);
    if (!cast.ok()) return false;
    *out = *std::move(cast);
    return true;
  }
  if (e.kind == ExprKind::kUnary && e.op == "-" && e.lhs != nullptr &&
      e.lhs->kind == ExprKind::kConst) {
    const Datum& d = e.lhs->datum;
    if (d.is_null()) return false;
    if (d.type() == SqlType::kReal || d.type() == SqlType::kDouble) {
      *out = Datum::Float(d.type(), -d.AsDouble());
      return true;
    }
    if (IsIntegralType(d.type()) && d.type() != SqlType::kBoolean &&
        d.AsInt() != INT64_MIN) {
      *out = Datum::Int(d.type(), -d.AsInt());
      return true;
    }
  }
  return false;
}

/// The output name of a kernel item (a column reference or an aggregate
/// call): its alias, else its column or function name.
const std::string* OutputNameOf(const SelectItem& item) {
  if (!item.alias.empty()) return &item.alias;
  const Expr& e = *item.expr;
  return e.kind == ExprKind::kColRef ? &e.column : &e.func_name;
}

/// A comparison between a column and a literal: `col op lit` or
/// `lit op col` (the operator flipped so the literal is on the right), or
/// the serializer's `((col op lit) OR (col IS NULL))`, which also passes
/// the null cells (q orders null first, so a filter's `<`, `<=` and `<>`
/// hold for null).
struct LitCmp {
  const Expr* col = nullptr;
  int op = 0;
  Datum lit;
  bool pass_null = false;
};

bool MatchLitCmp(const Expr& e, LitCmp* out) {
  if (e.kind != ExprKind::kBinary || e.lhs == nullptr || e.rhs == nullptr) {
    return false;
  }
  if (e.op == "OR") {
    const Expr& n = *e.rhs;
    if (n.kind != ExprKind::kIsNull || n.negated || n.lhs == nullptr ||
        n.lhs->kind != ExprKind::kColRef || !MatchLitCmp(*e.lhs, out) ||
        out->pass_null || out->col->qualifier != n.lhs->qualifier ||
        out->col->column != n.lhs->column) {
      return false;
    }
    out->pass_null = true;
    return true;
  }
  int op = CmpOpIndex(e.op);
  if (op < 0) return false;
  if (e.lhs->kind == ExprKind::kColRef && FoldLiteral(*e.rhs, &out->lit)) {
    out->col = e.lhs.get();
  } else if (e.rhs->kind == ExprKind::kColRef &&
             FoldLiteral(*e.lhs, &out->lit)) {
    out->col = e.rhs.get();
    op = FlipCmpOp(op);
  } else {
    return false;
  }
  out->op = op;
  out->pass_null = false;
  return true;
}

/// A constant FALSE conjunct, as a filter against a null literal folds to
/// (`x < 0n`): no row passes.
bool IsFalseLiteral(const Expr& e) {
  return e.kind == ExprKind::kConst && e.datum.type() == SqlType::kBoolean &&
         !e.datum.is_null() && !e.datum.AsBool();
}

/// True when the item expression is a kernel-runnable aggregate call:
/// non-DISTINCT, known aggregate function, argument either a single column
/// reference or the COUNT(*) spellings.
bool IsKernelAggregate(const Expr& e) {
  if (e.kind != ExprKind::kFuncCall || !IsAggregateFunction(e.func_name) ||
      e.distinct) {
    return false;
  }
  bool star = e.args.empty() ||
              (e.args.size() == 1 && e.args[0]->kind == ExprKind::kStar);
  if (star) return e.func_name == "count";
  return e.args.size() == 1 && e.args[0]->kind == ExprKind::kColRef;
}

/// The aggregate call of a kernel-runnable aggregate item: the item
/// itself, or the call under `COALESCE(<call>, <zero>)`, the serializer's
/// spelling of an ungrouped q `sum` (0 over no rows). The zero goes to
/// `if_null`, which stays NULL for a bare call.
const Expr* KernelAggregateOf(const Expr& e, Datum* if_null) {
  *if_null = Datum::Null();
  if (IsKernelAggregate(e)) return &e;
  if (e.kind != ExprKind::kFuncCall || e.func_name != "coalesce" ||
      e.args.size() != 2 || !IsKernelAggregate(*e.args[0]) ||
      !FoldLiteral(*e.args[1], if_null) || if_null->is_null()) {
    return nullptr;
  }
  const Datum& z = *if_null;
  const bool zero =
      z.type() == SqlType::kReal || z.type() == SqlType::kDouble
          ? z.AsDouble() == 0 && !std::signbit(z.AsDouble())
          : IsIntegralType(z.type()) && z.type() != SqlType::kBoolean &&
                z.AsInt() == 0;
  return zero ? e.args[0].get() : nullptr;
}

/// Resolves a column reference against the scan schema exactly like
/// Relation::Resolve over the scan relation would (the scan aliases every
/// column with the table alias). Ambiguity or a miss compiles to fallback
/// so the interpreted executor reports its own bind error.
int ResolveCol(const Expr& e, const std::vector<TableColumn>& schema,
               const std::string& alias) {
  if (!e.qualifier.empty() && e.qualifier != alias) return -1;
  const std::string& want = e.column;
  if (want.empty()) return -1;
  int found = -1;
  for (size_t i = 0; i < schema.size(); ++i) {
    // The last byte first: wide tables number their columns (f0 … f499),
    // so names of one length differ mostly at the end.
    const std::string& name = schema[i].name;
    if (name.size() != want.size() || name.back() != want.back() ||
        name != want) {
      continue;
    }
    if (found >= 0) return -1;
    found = static_cast<int>(i);
  }
  return found;
}

/// Comparison mode for `column <op> literal` following BinaryKernel's
/// dispatch (eval.cc): string columns compare bytes against string
/// literals, float on either side promotes to double, otherwise int64.
/// kNever encodes combinations whose comparison is never TRUE (NULL
/// literal, all-NULL column); nullopt rejects the plan (data-dependent type
/// errors belong to the interpreted path).
std::optional<KernelPlan::CmpMode> CmpModeFor(Column::Storage st,
                                              char lit_class) {
  using Mode = KernelPlan::CmpMode;
  if (lit_class == 'n' || st == Column::Storage::kEmpty) return Mode::kNever;
  switch (st) {
    case Column::Storage::kString:
      if (lit_class == 's') return Mode::kString;
      return std::nullopt;
    case Column::Storage::kInt:
      if (lit_class == 'i') return Mode::kIntInt;
      if (lit_class == 'f') return Mode::kIntDouble;
      return std::nullopt;
    case Column::Storage::kFloat:
      if (lit_class == 'i' || lit_class == 'f') return Mode::kDouble;
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

/// Equality mode for IN-list items, which compare by
/// Datum::DistinctEquals. Unlike CmpModeFor this never rejects:
/// DistinctEquals never raises a type error — a class mismatch simply
/// compares unequal — so mismatches compile to kNever (equality false).
KernelPlan::CmpMode EqModeFor(Column::Storage st, char lit_class) {
  using Mode = KernelPlan::CmpMode;
  if (lit_class == 'n' || st == Column::Storage::kEmpty) return Mode::kNever;
  switch (st) {
    case Column::Storage::kString:
      return lit_class == 's' ? Mode::kString : Mode::kNever;
    case Column::Storage::kInt:
      if (lit_class == 'i') return Mode::kIntInt;
      if (lit_class == 'f') return Mode::kIntDouble;
      return Mode::kNever;
    case Column::Storage::kFloat:
      return (lit_class == 'i' || lit_class == 'f') ? Mode::kDouble
                                                    : Mode::kNever;
    default:
      return Mode::kNever;
  }
}

/// The "compile" rejection: the shape is in the kernel grammar, the table
/// does not fit it.
constexpr char kMisfit[] = "compile";

/// The FROM-clause rejections, decided before the name is resolved: the
/// kernel takes one flat single-table SELECT (the serializer emits the
/// translator's hot shapes in that form). Shapes with their own post-core
/// machinery (dedup, unions, HAVING) stay on the interpreted path.
const char* FromReject(const SelectStmt& stmt) {
  if (stmt.distinct) return "distinct";
  if (stmt.having != nullptr) return "having";
  if (!stmt.union_all.empty()) return "union";
  if (stmt.from == nullptr) return "from";
  if (stmt.from->kind == TableRef::Kind::kSubquery) return "subquery";
  if (stmt.from->kind == TableRef::Kind::kJoin) return "join";
  if (stmt.from->name.empty() || stmt.items.empty()) return "from";
  return nullptr;
}

/// The table a plan compiles against, under the statement's alias.
struct CompileCtx {
  const StoredTable& table;
  const std::string& alias;

  /// A column the kernel can read in place: resolved, with a full-length
  /// buffer of one storage class. -1 otherwise.
  int Readable(int c) const {
    if (c < 0 || static_cast<size_t>(c) >= table.data.size()) return -1;
    const ColumnPtr& col = table.data[c];
    return col != nullptr && col->size() == table.row_count &&
                   col->storage() != Column::Storage::kMixed
               ? c
               : -1;
  }
  int Col(const Expr& e) const {
    return Readable(ResolveCol(e, table.columns, alias));
  }
  Column::Storage StorageOf(int c) const { return table.data[c]->storage(); }
};

KernelPlan::Lit BindLit(KernelPlan::CmpMode mode, const Datum& d) {
  KernelPlan::Lit lit;
  switch (mode) {
    case KernelPlan::CmpMode::kIntInt:
      lit.i = d.AsInt();
      break;
    case KernelPlan::CmpMode::kIntDouble:
    case KernelPlan::CmpMode::kDouble:
      lit.d = d.AsDouble();
      break;
    case KernelPlan::CmpMode::kString:
      lit.s = d.AsString();
      break;
    case KernelPlan::CmpMode::kNever:
      break;
  }
  return lit;
}

/// Compiles one WHERE conjunct (ANDs recurse) into `preds`. Returns nullptr
/// or a rejection label: "predicate" for a conjunct outside the grammar,
/// else kMisfit when the table does not fit one.
const char* CompileWhere(const Expr& e, const CompileCtx& ctx,
                         std::vector<KernelPlan::Pred>* preds) {
  using Pred = KernelPlan::Pred;
  if (e.kind == ExprKind::kBinary && e.op == "AND") {
    const char* l = CompileWhere(*e.lhs, ctx, preds);
    if (l != nullptr && l != kMisfit) return l;
    const char* r = CompileWhere(*e.rhs, ctx, preds);
    return r != nullptr ? r : l;
  }
  Pred p;
  LitCmp c;
  if (IsFalseLiteral(e)) {
    p.kind = Pred::Kind::kFalse;
  } else if (MatchLitCmp(e, &c)) {
    p.kind = Pred::Kind::kCmp;
    p.op = c.op;
    p.pass_null = c.pass_null;
    p.col = ctx.Col(*c.col);
    if (p.col < 0) return kMisfit;
    // A class mismatch raises the interpreter's comparison type error on
    // every non-NULL row, with or without `OR col IS NULL`.
    auto mode = CmpModeFor(ctx.StorageOf(p.col), ClassOf(c.lit));
    if (!mode) return kMisfit;
    p.mode = *mode;
    p.lit = BindLit(p.mode, c.lit);
  } else if (e.kind == ExprKind::kIsNull) {
    if (e.lhs == nullptr || e.lhs->kind != ExprKind::kColRef) {
      return "predicate";
    }
    p.kind = Pred::Kind::kIsNull;
    p.negated = e.negated;
    p.col = ctx.Col(*e.lhs);
    if (p.col < 0) return kMisfit;
  } else if (e.kind == ExprKind::kBetween) {
    Datum lo, hi;
    if (e.lhs == nullptr || e.lhs->kind != ExprKind::kColRef ||
        e.low == nullptr || e.high == nullptr || !FoldLiteral(*e.low, &lo) ||
        !FoldLiteral(*e.high, &hi)) {
      return "predicate";
    }
    p.kind = Pred::Kind::kBetween;
    p.negated = e.negated;
    p.col = ctx.Col(*e.lhs);
    if (p.col < 0) return kMisfit;
    // Any NULL bound makes the whole predicate evaluate to NULL before the
    // bound comparison, so neither bound can raise a type error: both
    // modes stay kNever.
    if (!lo.is_null() && !hi.is_null()) {
      auto lo_mode = CmpModeFor(ctx.StorageOf(p.col), ClassOf(lo));
      auto hi_mode = CmpModeFor(ctx.StorageOf(p.col), ClassOf(hi));
      if (!lo_mode || !hi_mode) return kMisfit;
      p.mode = *lo_mode;
      p.hi_mode = *hi_mode;
      p.lit = BindLit(p.mode, lo);
      p.hi = BindLit(p.hi_mode, hi);
    }
  } else if (e.kind == ExprKind::kInList) {
    if (e.lhs == nullptr || e.lhs->kind != ExprKind::kColRef ||
        e.args.empty()) {
      return "predicate";
    }
    p.kind = Pred::Kind::kInList;
    p.negated = e.negated;
    p.col = ctx.Col(*e.lhs);
    for (const ExprPtr& a : e.args) {
      Datum item;
      if (a == nullptr || !FoldLiteral(*a, &item)) return "predicate";
      if (p.col < 0) continue;
      if (item.is_null()) p.has_null_item = true;
      const KernelPlan::CmpMode mode =
          EqModeFor(ctx.StorageOf(p.col), ClassOf(item));
      p.item_modes.push_back(mode);
      p.items.push_back(BindLit(mode, item));
    }
    if (p.col < 0) return kMisfit;
  } else {
    return "predicate";
  }
  preds->push_back(std::move(p));
  return nullptr;
}

}  // namespace

std::optional<KernelPlan> KernelPlan::Compile(const SelectStmt& stmt,
                                              const StoredTable& table,
                                              const char** reject) {
  auto fail = [reject](const char* reason) {
    *reject = reason;
    return std::nullopt;
  };
  // A misfit is reported only once the whole statement is known to be in
  // the grammar, so a grammar label always wins.
  bool misfit = table.data.size() != table.columns.size();
  const std::string& alias =
      stmt.from->alias.empty() ? stmt.from->name : stmt.from->alias;
  const CompileCtx ctx{table, alias};
  KernelPlan plan;
  plan.table_ = &table;

  bool has_agg = false;
  bool has_star = false;
  for (const SelectItem& item : stmt.items) {
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kStar) {
      // Projection-path star: expand like the interpreted projection does,
      // alias = column name, honoring a qualifier filter.
      has_star = true;
      bool any = false;
      for (size_t i = 0; i < table.columns.size(); ++i) {
        if (!e.qualifier.empty() && e.qualifier != alias) continue;
        Item it;
        it.col = ctx.Readable(static_cast<int>(i));
        misfit |= it.col < 0;
        it.name = &table.columns[i].name;
        it.type = table.columns[i].type;
        plan.items_.push_back(std::move(it));
        any = true;
      }
      misfit |= !any;
      continue;
    }
    Item it;
    it.name = OutputNameOf(item);
    if (e.kind == ExprKind::kColRef) {
      it.col = ctx.Col(e);
      if (it.col < 0) {
        misfit = true;
      } else {
        it.type = table.columns[it.col].type;
      }
    } else if (const Expr* call = KernelAggregateOf(e, &it.agg.if_null)) {
      has_agg = true;
      it.is_agg = true;
      it.agg.call = call;
      // InferType over the scan relation, narrowed to the one column the
      // aggregate reads (it resolves uniquely there as in the full scan).
      Relation meta;
      if (!call->args.empty() && call->args[0]->kind == ExprKind::kColRef) {
        it.agg.col = ctx.Col(*call->args[0]);
        if (it.agg.col < 0) {
          misfit = true;
        } else {
          // Numeric reductions over strings funnel through the collected
          // row path; leave those to the interpreter.
          misfit |= ctx.StorageOf(it.agg.col) == Column::Storage::kString &&
                    !(call->func_name == "count" || call->func_name == "min" ||
                      call->func_name == "max" ||
                      call->func_name == "first" || call->func_name == "last");
          const TableColumn& arg = table.columns[it.agg.col];
          meta.cols.push_back(RelColumn{alias, arg.name, arg.type});
        }
      }
      if (!misfit) it.type = Executor::InferType(e, meta);
    } else {
      return fail("expr");
    }
    plan.items_.push_back(std::move(it));
  }

  if (stmt.where != nullptr) {
    if (const char* r = CompileWhere(*stmt.where, ctx, &plan.preds_)) {
      if (r != kMisfit) return fail(r);
      misfit = true;
    }
  }

  for (const ExprPtr& g : stmt.group_by) {
    if (g->kind != ExprKind::kColRef) return fail("group_by");
    const int c = ctx.Col(*g);
    misfit |= c < 0;
    plan.group_cols_.push_back(c);
  }
  plan.grouped_ = has_agg || !stmt.group_by.empty();
  // A star select of a grouped query would project every column through
  // representative rows; keep stars on the projection path only (the
  // interpreted executor owns the exotic combination).
  if (plan.grouped_ && has_star) return fail("star_agg");

  // ORDER BY keys resolve against the output items exactly like the
  // interpreted ApplyOrderBy: 1-based ordinals, or unqualified names
  // taking the first select-list match. Qualified keys and expressions
  // sort over the pre-projection relation there; that stays interpreted.
  for (const OrderItem& k : stmt.order_by) {
    if (k.expr == nullptr) return fail("order_by");
    const Expr& e = *k.expr;
    int idx = -1;
    if (e.kind == ExprKind::kConst && !e.datum.is_null() &&
        IsIntegralType(e.datum.type())) {
      // Out-of-range ordinals raise a bind error the interpreter owns.
      const int64_t ord = e.datum.AsInt();
      if (has_star || ord < 1 ||
          ord > static_cast<int64_t>(stmt.items.size())) {
        return fail("order_by");
      }
      idx = static_cast<int>(ord - 1);
    } else if (e.kind == ExprKind::kColRef && e.qualifier.empty()) {
      for (size_t i = 0; i < plan.items_.size(); ++i) {
        if (*plan.items_[i].name == e.column) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0) return fail("order_by");
    } else {
      return fail("order_by");
    }
    plan.order_keys_.push_back({idx, k.ascending, k.nulls_first});
  }

  // LIMIT/OFFSET: constant and integral. Anything the interpreted
  // ApplyLimit would reject (NULL, non-integral) is its error to report.
  auto fold_limit = [](const ExprPtr& e, int64_t* out) {
    Datum d;
    if (e == nullptr) return true;
    if (!FoldLiteral(*e, &d) || d.is_null() || !IsIntegralType(d.type())) {
      return false;
    }
    *out = d.AsInt();
    return true;
  };
  if (!fold_limit(stmt.limit, &plan.limit_) ||
      !fold_limit(stmt.offset, &plan.offset_)) {
    return fail("limit");
  }
  if (misfit) return fail(kMisfit);
  return plan;
}

bool KernelPlan::ScanOrdered() const {
  std::vector<ColumnPtr> cols;
  for (const SortKey& k : order_keys_) {
    const Item& it = items_[k.col];
    if (it.is_agg) return false;
    cols.push_back(table_->data[it.col]);
  }
  std::vector<SortKey> keys = order_keys_;
  for (size_t i = 0; i < keys.size(); ++i) keys[i].col = static_cast<int>(i);
  return InKeyOrder(cols, keys, table_->row_count);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

using CmpMode = KernelPlan::CmpMode;
using Pred = KernelPlan::Pred;

/// Raw pointers into one stored column, hoisted out of the row loop.
struct ColView {
  Column::Storage st = Column::Storage::kEmpty;
  const int64_t* iv = nullptr;
  const double* dv = nullptr;
  const std::vector<std::string>* sv = nullptr;
  const uint8_t* nulls = nullptr;

  bool IsNull(size_t r) const {
    if (st == Column::Storage::kEmpty) return true;
    return nulls != nullptr && nulls[r] != 0;
  }
};

ColView ViewOf(const Column& c) {
  ColView v;
  v.st = c.storage();
  switch (v.st) {
    case Column::Storage::kInt:
      v.iv = c.ints();
      break;
    case Column::Storage::kFloat:
      v.dv = c.floats();
      break;
    case Column::Storage::kString:
      v.sv = &c.strs();
      break;
    default:
      break;
  }
  if (!c.null_bytes().empty()) v.nulls = c.null_bytes().data();
  return v;
}

/// Three-way "column value vs bound literal" under the mode's typing.
inline int Cmp3Bound(CmpMode mode, const ColView& c, size_t r,
                     const KernelPlan::Lit& lit) {
  switch (mode) {
    case CmpMode::kIntInt: {
      int64_t x = c.iv[r];
      return (x > lit.i) - (x < lit.i);
    }
    case CmpMode::kIntDouble:
      return Cmp3Double(static_cast<double>(c.iv[r]), lit.d);
    case CmpMode::kDouble:
      return Cmp3Double(c.dv[r], lit.d);
    case CmpMode::kString: {
      int s = (*c.sv)[r].compare(lit.s);
      return (s > 0) - (s < 0);
    }
    default:
      return 0;
  }
}

/// First predicate fills `sel` from [lo, hi); later predicates compact it
/// in place. `pass` is a mode-specialized lambda so the row loop carries
/// no type dispatch.
template <typename Pass>
inline void FillOrCompact(bool first, size_t lo, size_t hi, SelVector* sel,
                          Pass pass) {
  if (first) {
    for (size_t r = lo; r < hi; ++r) {
      if (pass(r)) sel->push_back(static_cast<uint32_t>(r));
    }
    return;
  }
  size_t w = 0;
  for (uint32_t r : *sel) {
    if (pass(r)) (*sel)[w++] = r;
  }
  sel->resize(w);
}

/// Keeps the rows whose cell is NULL (`keep_null`) or non-NULL.
void KeepByNullness(const ColView& c, bool keep_null, bool first, size_t lo,
                    size_t hi, SelVector* sel) {
  const uint8_t* nulls = c.nulls;
  if (c.st == Column::Storage::kEmpty) {
    FillOrCompact(first, lo, hi, sel,
                  [keep_null](size_t) { return keep_null; });
  } else if (nulls == nullptr) {
    FillOrCompact(first, lo, hi, sel,
                  [keep_null](size_t) { return !keep_null; });
  } else {
    FillOrCompact(first, lo, hi, sel, [nulls, keep_null](size_t r) {
      return (nulls[r] != 0) == keep_null;
    });
  }
}

void ApplyPred(const Pred& p, const std::vector<ColView>& cols, bool first,
               size_t lo, size_t hi, SelVector* sel) {
  if (p.kind == Pred::Kind::kFalse) {  // reads no column
    sel->clear();
    return;
  }
  const ColView& c = cols[p.col];
  const uint8_t* nulls = c.nulls;
  switch (p.kind) {
    case Pred::Kind::kFalse:  // cleared above
      return;
    case Pred::Kind::kIsNull:
      KeepByNullness(c, /*keep_null=*/!p.negated, first, lo, hi, sel);
      return;
    case Pred::Kind::kCmp: {
      // A NULL cell makes the comparison NULL: the row passes only under
      // `OR col IS NULL`.
      const int op = p.op;
      const bool pass_null = p.pass_null;
      switch (p.mode) {
        case CmpMode::kNever:  // NULL literal or all-NULL column
          if (pass_null) {
            KeepByNullness(c, /*keep_null=*/true, first, lo, hi, sel);
          } else {
            FillOrCompact(first, lo, hi, sel, [](size_t) { return false; });
          }
          return;
        case CmpMode::kIntInt: {
          const int64_t* iv = c.iv;
          const int64_t b = p.lit.i;
          FillOrCompact(first, lo, hi, sel,
                        [iv, nulls, b, op, pass_null](size_t r) {
                          if (nulls != nullptr && nulls[r] != 0) {
                            return pass_null;
                          }
                          const int64_t x = iv[r];
                          return CmpHolds(op, (x > b) - (x < b));
                        });
          return;
        }
        case CmpMode::kIntDouble: {
          const int64_t* iv = c.iv;
          const double b = p.lit.d;
          FillOrCompact(
              first, lo, hi, sel, [iv, nulls, b, op, pass_null](size_t r) {
                if (nulls != nullptr && nulls[r] != 0) return pass_null;
                return CmpHolds(op, Cmp3Double(static_cast<double>(iv[r]), b));
              });
          return;
        }
        case CmpMode::kDouble: {
          const double* dv = c.dv;
          const double b = p.lit.d;
          FillOrCompact(first, lo, hi, sel,
                        [dv, nulls, b, op, pass_null](size_t r) {
                          if (nulls != nullptr && nulls[r] != 0) {
                            return pass_null;
                          }
                          return CmpHolds(op, Cmp3Double(dv[r], b));
                        });
          return;
        }
        case CmpMode::kString: {
          const std::vector<std::string>* sv = c.sv;
          const std::string* b = &p.lit.s;
          FillOrCompact(first, lo, hi, sel,
                        [sv, nulls, b, op, pass_null](size_t r) {
                          if (nulls != nullptr && nulls[r] != 0) {
                            return pass_null;
                          }
                          const int s = (*sv)[r].compare(*b);
                          return CmpHolds(op, (s > 0) - (s < 0));
                        });
          return;
        }
      }
      return;
    }
    case Pred::Kind::kBetween: {
      // NULL operand or NULL bound => NULL => row dropped, negated or not.
      if (p.mode == CmpMode::kNever || p.hi_mode == CmpMode::kNever ||
          c.st == Column::Storage::kEmpty) {
        FillOrCompact(first, lo, hi, sel, [](size_t) { return false; });
        return;
      }
      const bool neg = p.negated;
      FillOrCompact(first, lo, hi, sel, [&p, &c, nulls, neg](size_t r) {
        if (nulls != nullptr && nulls[r] != 0) return false;
        const int c1 = Cmp3Bound(p.mode, c, r, p.lit);
        const int c2 = Cmp3Bound(p.hi_mode, c, r, p.hi);
        const bool in = c1 >= 0 && c2 <= 0;
        return in != neg;
      });
      return;
    }
    case Pred::Kind::kInList: {
      // IN: NULL cell => NULL => dropped; otherwise any DistinctEquals
      // item match passes (NULL/mismatched items never match a non-NULL
      // cell). NOT IN: a NULL item makes every row NULL => dropped;
      // otherwise pass iff no item matches.
      const bool neg = p.negated;
      if ((neg && p.has_null_item) ||
          c.st == Column::Storage::kEmpty) {
        FillOrCompact(first, lo, hi, sel, [](size_t) { return false; });
        return;
      }
      const size_t ni = p.items.size();
      FillOrCompact(first, lo, hi, sel, [&, nulls, neg, ni](size_t r) {
        if (nulls != nullptr && nulls[r] != 0) return false;
        bool eq = false;
        for (size_t i = 0; i < ni && !eq; ++i) {
          const KernelPlan::Lit& item = p.items[i];
          switch (p.item_modes[i]) {
            case CmpMode::kIntInt:
              eq = c.iv[r] == item.i;
              break;
            case CmpMode::kIntDouble:
              eq = static_cast<double>(c.iv[r]) == item.d;
              break;
            case CmpMode::kDouble:
              eq = DistinctEqualsDouble(c.dv[r], item.d);
              break;
            case CmpMode::kString:
              eq = (*c.sv)[r] == item.s;
              break;
            case CmpMode::kNever:
              break;
          }
        }
        return eq != neg;
      });
      return;
    }
  }
}

/// The plan's conjuncts over one table: the fused filter of one morsel.
struct Filter {
  const std::vector<Pred>* preds;
  std::vector<ColView> cols;  ///< viewed only where a conjunct reads

  Filter(const std::vector<Pred>& p, const StoredTable& table)
      : preds(&p), cols(table.data.size()) {
    for (const Pred& pred : p) {
      if (pred.kind != Pred::Kind::kFalse) {
        cols[pred.col] = ViewOf(*table.data[pred.col]);
      }
    }
  }

  /// Survivors of all conjuncts land in `sel` (ascending). No full-table
  /// SelVector is ever materialized.
  Status operator()(size_t lo, size_t hi, SelVector* sel) const {
    sel->clear();
    sel->reserve(hi - lo);  // one allocation per morsel, not a regrowth
    if (preds->empty()) {
      for (size_t r = lo; r < hi; ++r) {
        sel->push_back(static_cast<uint32_t>(r));
      }
      return Status::OK();
    }
    bool first = true;
    for (const Pred& p : *preds) {
      ApplyPred(p, cols, first, lo, hi, sel);
      first = false;
    }
    return Status::OK();
  }
};

}  // namespace

Result<Relation> KernelPlan::ExecuteGrouped() const {
  const StoredTable& table = *table_;
  const Deadline dl = Deadline::Current();
  HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "scan/join"));
  const size_t n = table.row_count;

  const Filter filter(preds_, table);
  const bool parallel = ShouldParallelize(n);
  std::vector<SelVector> members;
  if (group_cols_.empty()) {
    HQ_ASSIGN_OR_RETURN(SelVector sel, FilterMorsels(n, parallel, dl, filter));
    if (!sel.empty()) members.push_back(std::move(sel));
  } else {
    std::vector<ColumnPtr> keys;
    for (int c : group_cols_) keys.push_back(table.data[c]);
    HQ_ASSIGN_OR_RETURN(
        members, GroupMembers(keys, n, parallel, dl,
                              [&](size_t lo, size_t hi, auto&& add) {
                                SelVector sel;
                                HQ_RETURN_IF_ERROR(filter(lo, hi, &sel));
                                for (uint32_t r : sel) add(r);
                                return Status::OK();
                              }));
  }
  // No GROUP BY: aggregates over an empty input still produce one row
  // (count(*) = 0, sums NULL), exactly like the interpreted executor.
  if (group_cols_.empty() && members.empty()) members.emplace_back();
  HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "group build"));

  const size_t ngroups = members.size();
  size_t filtered = 0;
  for (const SelVector& m : members) filtered += m.size();

  // Representative rows feed the plain-column outputs (first member; -1
  // pads the empty no-GROUP-BY group with NULLs).
  const std::vector<int64_t> rep = RepresentativeRows(members);
  std::unordered_map<int, ColumnPtr> rep_cols;
  for (const Item& item : items_) {
    if (item.is_agg || rep_cols.count(item.col) != 0) continue;
    rep_cols.emplace(item.col,
                     table.data[item.col]->GatherPad(rep.data(), ngroups));
  }

  Relation out;
  out.row_count = ngroups;
  const bool par_aggs = ngroups > 1 && ShouldParallelize(filtered);
  for (const Item& item : items_) {
    ColumnPtr col;
    if (!item.is_agg) {
      col = rep_cols[item.col];
    } else {
      const Column* arg =
          item.agg.col < 0 ? nullptr : table.data[item.agg.col].get();
      HQ_ASSIGN_OR_RETURN(
          std::vector<Datum> vals,
          ReduceGroups(*item.agg.call, arg, members, par_aggs, dl));
      auto c = std::make_shared<Column>();
      for (const Datum& v : vals) {
        c->Append(v.is_null() ? item.agg.if_null : v);
      }
      col = std::move(c);
    }
    out.cols.push_back(
        RelColumn{"", *item.name, RefinedType(item.type, *col, ngroups)});
    out.columns.push_back(std::move(col));
  }
  HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "group/aggregate"));
  return ApplyOrderAndLimit(std::move(out), /*scan_ordered=*/false);
}

Result<Relation> KernelPlan::ExecuteProject() const {
  const StoredTable& table = *table_;
  const Deadline dl = Deadline::Current();
  HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "scan/join"));
  const size_t n = table.row_count;

  std::unordered_map<int, ColumnPtr> gathered;
  size_t out_rows = n;
  bool scan_ordered = false;
  if (!preds_.empty()) {
    const Filter filter(preds_, table);
    SelVector sel;
    // LIMIT early exit: when the ORDER BY already holds in scan order, a
    // stable sort of the survivors is the identity, so the morsel loop can
    // stop once OFFSET+LIMIT rows survived (at least one, so the
    // first-survivor type refinement below still sees what the
    // interpreter's full scan would). The collected prefix is identical to
    // the interpreter's prefix by construction.
    scan_ordered = limit_ >= 0 && ScanOrdered();
    if (scan_ordered) {
      uint64_t need = static_cast<uint64_t>(limit_) +
                      static_cast<uint64_t>(offset_ > 0 ? offset_ : 0);
      if (need < 1) need = 1;
      SelVector part;
      for (size_t lo = 0; lo < n && sel.size() < need; lo += kMorselRows) {
        HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "filter morsel"));
        size_t hi = std::min(n, lo + kMorselRows);
        HQ_RETURN_IF_ERROR(filter(lo, hi, &part));
        sel.insert(sel.end(), part.begin(), part.end());
      }
    } else {
      HQ_ASSIGN_OR_RETURN(sel,
                          FilterMorsels(n, ShouldParallelize(n), dl, filter));
    }
    out_rows = sel.size();

    // Gather only the referenced columns (the interpreter gathers the
    // whole table); Relation::GatherRows keeps the PR 3 parallel 2-D
    // gather and its byte-identical-to-sequential contract.
    Relation sub;
    std::vector<int> sub_cols;
    for (const Item& item : items_) {
      if (gathered.count(item.col) != 0) continue;
      gathered.emplace(item.col, nullptr);
      sub_cols.push_back(item.col);
      sub.cols.push_back(RelColumn{"", table.columns[item.col].name,
                                   table.columns[item.col].type});
      sub.columns.push_back(table.data[item.col]);
    }
    sub.row_count = n;
    Relation picked = sub.GatherRows(sel.data(), sel.size());
    for (size_t j = 0; j < sub_cols.size(); ++j) {
      gathered[sub_cols[j]] = picked.columns[j];
    }
  } else {
    // No filter: share the stored column buffers zero-copy, like the
    // interpreted scan + identity projection.
    for (const Item& item : items_) {
      if (gathered.count(item.col) == 0) {
        gathered.emplace(item.col, table.data[item.col]);
      }
    }
  }

  Relation out;
  out.row_count = out_rows;
  for (const Item& item : items_) {
    ColumnPtr col = gathered[item.col];
    out.cols.push_back(
        RelColumn{"", *item.name, RefinedType(item.type, *col, out_rows)});
    out.columns.push_back(std::move(col));
  }
  return ApplyOrderAndLimit(std::move(out), scan_ordered);
}

Result<Relation> KernelPlan::ApplyOrderAndLimit(Relation out,
                                                bool scan_ordered) const {
  // The interpreted ApplyOrderBy/ApplyLimit operators over the output
  // items. Rows already in key order skip the gather; cell bytes are
  // unchanged either way.
  if (!scan_ordered) {
    if (auto order = SortPermutation(out.columns, order_keys_, out.row_count)) {
      out = out.GatherRows(order->data(), order->size());
    }
  }
  return LimitWindow(std::move(out), limit_, offset_);
}

Result<Relation> KernelPlan::Execute() const {
  return grouped_ ? ExecuteGrouped() : ExecuteProject();
}

// ---------------------------------------------------------------------------
// Per-statement entry
// ---------------------------------------------------------------------------

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct KernelMetrics {
  Counter* hits;
  Counter* misses;
  Counter* fallbacks;
  LatencyHistogram* compile_us;
  LatencyHistogram* exec_us;
  /// Labeled rejection counters (kernel.reject.subquery, .order_by, ...).
  std::unordered_map<std::string, Counter*> rejects;
  Counter* reject_other;

  KernelMetrics() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    hits = reg.GetCounter("kernel.hits");
    misses = reg.GetCounter("kernel.misses");
    fallbacks = reg.GetCounter("kernel.fallbacks");
    compile_us = reg.GetHistogram("kernel.compile_us");
    exec_us = reg.GetHistogram("kernel.exec_us");
    // Every label FromReject / Compile can emit (docs/OBSERVABILITY.md).
    static const char* const kReasons[] = {
        "subquery", "join",     "from",     "distinct", "having",
        "union",    "group_by", "star_agg", "expr",     "predicate",
        "order_by", "limit",    kMisfit};
    for (const char* reason : kReasons) {
      rejects.emplace(reason,
                      reg.GetCounter(std::string("kernel.reject.") + reason));
    }
    reject_other = reg.GetCounter("kernel.reject.other");
  }

  /// Counts a declined statement: `kernel.fallbacks` and the reason's
  /// `kernel.reject.<reason>` (nullptr counts no reason).
  void Decline(const char* reason) const {
    fallbacks->Increment();
    if (reason == nullptr) return;
    auto it = rejects.find(reason);
    (it != rejects.end() ? it->second : reject_other)->Increment();
  }
};

const KernelMetrics& Metrics() {
  static const KernelMetrics metrics;
  return metrics;
}

}  // namespace

void RegisterKernelMetrics() { Metrics(); }

std::optional<Result<Relation>> TryKernelSelect(const SelectStmt& stmt,
                                                const Catalog& catalog,
                                                const Session* session) {
  const KernelMetrics& m = Metrics();
  if (const char* reason = FromReject(stmt)) {
    m.Decline(reason);
    return std::nullopt;
  }
  // The executor's lookup order (Executor::LookupNamed): session temp
  // table, then catalog table. A view or an unknown name stays with the
  // interpreter, which expands or reports it.
  std::shared_ptr<StoredTable> table;
  const std::string& name = stmt.from->name;
  if (session != nullptr) {
    auto it = session->temp_tables().find(name);
    if (it != session->temp_tables().end()) table = it->second;
  }
  if (table == nullptr && catalog.HasTable(name)) {
    Result<std::shared_ptr<StoredTable>> stored = catalog.GetTable(name);
    if (stored.ok()) table = *std::move(stored);
  }
  if (table == nullptr) {
    m.Decline(nullptr);
    return std::nullopt;
  }

  const int64_t t0 = NowUs();
  const char* reject = nullptr;
  std::optional<KernelPlan> plan = KernelPlan::Compile(stmt, *table, &reject);
  if (!plan && reject != kMisfit) {
    m.Decline(reject);
    return std::nullopt;
  }
  m.misses->Increment();
  m.compile_us->Record(NowUs() - t0);
  if (!plan) {
    m.Decline(reject);
    return std::nullopt;
  }
  // Fault site: an armed error downgrades the kernel path to the
  // interpreted executor (the query still succeeds); delays are slept
  // inside the injector before this returns.
  if (CheckFault("backend.kernel").kind != FaultHit::Kind::kNone) {
    m.Decline(nullptr);
    return std::nullopt;
  }
  m.hits->Increment();
  const int64_t t1 = NowUs();
  Result<Relation> result = plan->Execute();
  m.exec_us->Record(NowUs() - t1);
  return std::optional<Result<Relation>>(std::move(result));
}

}  // namespace sqldb
}  // namespace hyperq
