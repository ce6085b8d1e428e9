#include "sqldb/kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/sql_markers.h"
#include "common/status.h"
#include "sqldb/eval.h"
#include "sqldb/exec.h"
#include "sqldb/operators.h"

namespace hyperq {
namespace sqldb {
namespace {

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// Literal class for the `$k` slot: statements whose literals differ only
/// within a class compile to the same kernel.
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

/// Builds the fingerprint text. '\x01' separates fields; every
/// construct is tagged, so two statements share text only when the kernel
/// compiled for one is exactly the kernel for the other (modulo literal
/// values, which live in `params`).
struct FpBuilder {
  KernelFingerprint fp;

  void Field(const std::string& s) {
    fp.text += s;
    fp.text += '\x01';
  }
  void Tag(const char* t) { fp.text += t; }
  void Col(const Expr& e) {
    Field(e.qualifier);
    Field(e.column);
  }
  void Lit(const Datum& d) {
    fp.text += '$';
    fp.text += ClassOf(d);
    fp.text += '\x01';
    fp.params.push_back(d);
  }
};

const char* OutputNameOf(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias.c_str();
  const Expr& e = *item.expr;
  if (e.kind == ExprKind::kColRef) return e.column.c_str();
  if (e.kind == ExprKind::kFuncCall) return e.func_name.c_str();
  return "?column?";
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

bool WalkWhere(const Expr& e, FpBuilder* b) {
  if (e.kind == ExprKind::kBinary && e.op == "AND") {
    return WalkWhere(*e.lhs, b) && WalkWhere(*e.rhs, b);
  }
  if (IsFalseLiteral(e)) {
    b->Tag("p:F");
    return true;
  }
  LitCmp c;
  if (MatchLitCmp(e, &c)) {
    b->Tag(c.pass_null ? "p:C" : "p:c");
    b->Field(std::to_string(c.op));
    b->Col(*c.col);
    b->Lit(c.lit);
    return true;
  }
  if (e.kind == ExprKind::kIsNull) {
    if (e.lhs == nullptr || e.lhs->kind != ExprKind::kColRef) return false;
    b->Tag(e.negated ? "p:N" : "p:n");
    b->Col(*e.lhs);
    return true;
  }
  if (e.kind == ExprKind::kBetween) {
    if (e.lhs == nullptr || e.lhs->kind != ExprKind::kColRef) return false;
    Datum lo, hi;
    if (e.low == nullptr || e.high == nullptr || !FoldLiteral(*e.low, &lo) ||
        !FoldLiteral(*e.high, &hi)) {
      return false;
    }
    b->Tag(e.negated ? "p:B" : "p:b");
    b->Col(*e.lhs);
    b->Lit(lo);
    b->Lit(hi);
    return true;
  }
  if (e.kind == ExprKind::kInList) {
    if (e.lhs == nullptr || e.lhs->kind != ExprKind::kColRef ||
        e.args.empty()) {
      return false;
    }
    b->Tag(e.negated ? "p:I" : "p:i");
    b->Col(*e.lhs);
    b->Field(std::to_string(e.args.size()));
    for (const ExprPtr& a : e.args) {
      Datum item;
      if (a == nullptr || !FoldLiteral(*a, &item)) return false;
      b->Lit(item);
    }
    return true;
  }
  return false;
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

KernelFingerprint RejectFp(const char* reason) {
  KernelFingerprint fp;
  fp.reject_reason = reason;
  return fp;
}

}  // namespace

KernelFingerprint KernelFingerprintFor(const SelectStmt& stmt) {
  // Shapes with their own post-core machinery (dedup, unions, HAVING)
  // stay on the interpreted path.
  if (stmt.distinct) return RejectFp("distinct");
  if (stmt.having != nullptr) return RejectFp("having");
  if (!stmt.union_all.empty()) return RejectFp("union");
  if (stmt.from == nullptr) return RejectFp("from");
  if (stmt.from->kind == TableRef::Kind::kSubquery) {
    return RejectFp("subquery");
  }
  if (stmt.from->kind == TableRef::Kind::kJoin) return RejectFp("join");
  if (stmt.from->name.empty() || stmt.items.empty()) {
    return RejectFp("from");
  }

  FpBuilder b;
  b.Tag("krn2|");
  b.Field(stmt.from->name);
  b.Field(stmt.from->alias);

  bool has_agg = false;
  bool has_star = false;
  for (const SelectItem& item : stmt.items) {
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kColRef) {
      b.Tag("i:c");
      b.Col(e);
    } else if (e.kind == ExprKind::kStar) {
      has_star = true;
      b.Tag("i:s");
      b.Field(e.qualifier);
    } else if (Datum if_null;
               const Expr* agg = KernelAggregateOf(e, &if_null)) {
      has_agg = true;
      b.Tag("i:a");
      b.Field(agg->func_name);
      if (agg->args.size() == 1 && agg->args[0]->kind == ExprKind::kColRef) {
        b.Col(*agg->args[0]);
      } else {
        b.Tag("*\x01");
      }
      // A zero fallback is part of the shape; only its type varies.
      if (!if_null.is_null()) {
        b.Tag("z");
        b.Field(std::to_string(static_cast<int>(if_null.type())));
      }
    } else {
      return RejectFp("expr");
    }
    b.Field(item.alias);
  }

  if (stmt.where != nullptr) {
    b.Tag("w|");
    if (!WalkWhere(*stmt.where, &b)) return RejectFp("predicate");
  }

  if (!stmt.group_by.empty()) {
    b.Tag("g|");
    for (const ExprPtr& g : stmt.group_by) {
      if (g->kind != ExprKind::kColRef) return RejectFp("group_by");
      b.Col(*g);
    }
  }
  // A star select of a grouped query would project every column through
  // representative rows; keep stars on the projection path only (the
  // interpreted executor owns the exotic combination).
  if ((has_agg || !stmt.group_by.empty()) && has_star) {
    return RejectFp("star_agg");
  }

  // ORDER BY: output ordinals (baked into the shape — positions are
  // structural) or unqualified output names. Qualified keys and arbitrary
  // expressions sort over the pre-projection relation in the interpreted
  // executor; leave those to it.
  if (!stmt.order_by.empty()) {
    b.Tag("o|");
    for (const OrderItem& k : stmt.order_by) {
      if (k.expr == nullptr) return RejectFp("order_by");
      const Expr& e = *k.expr;
      if (e.kind == ExprKind::kConst && !e.datum.is_null() &&
          IsIntegralType(e.datum.type())) {
        int64_t ord = e.datum.AsInt();
        // Out-of-range ordinals raise a user-visible bind error the
        // interpreter owns; with a star the output width is unknown here.
        if (has_star || ord < 1 ||
            ord > static_cast<int64_t>(stmt.items.size())) {
          return RejectFp("order_by");
        }
        b.Tag("o:#");
        b.Field(std::to_string(ord));
      } else if (e.kind == ExprKind::kColRef && e.qualifier.empty()) {
        b.Tag("o:c");
        b.Field(e.column);
      } else {
        return RejectFp("order_by");
      }
      b.Field(k.ascending ? "a" : "d");
      b.Field(k.nulls_first ? "nf" : "nl");
    }
  }

  // LIMIT/OFFSET: constant and integral, lifted to literal slots so LIMIT
  // 5 and LIMIT 10 share one kernel. Anything the interpreted ApplyLimit
  // would reject (NULL, non-integral) is its error to report.
  auto walk_limit = [&b](const Expr& e, const char* tag) {
    Datum d;
    if (!FoldLiteral(e, &d) || d.is_null() || !IsIntegralType(d.type())) {
      return false;
    }
    b.Tag(tag);
    b.Lit(d);
    return true;
  };
  if (stmt.limit != nullptr && !walk_limit(*stmt.limit, "l|")) {
    return RejectFp("limit");
  }
  if (stmt.offset != nullptr && !walk_limit(*stmt.offset, "O|")) {
    return RejectFp("limit");
  }

  b.fp.supported = true;
  b.fp.table = stmt.from->name;
  b.fp.hash = Fnv1a(b.fp.text);
  return b.fp;
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

namespace {

/// Resolves a column reference against the scan schema exactly like
/// Relation::Resolve over the scan relation would (the scan aliases every
/// column with the table alias). Ambiguity or a miss compiles to fallback
/// so the interpreted executor reports its own bind error.
int ResolveCol(const Expr& e, const std::vector<TableColumn>& schema,
               const std::string& alias) {
  if (!e.qualifier.empty() && e.qualifier != alias) return -1;
  int found = -1;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].name != e.column) continue;
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

struct CompileCtx {
  const std::vector<TableColumn>* schema;
  const std::vector<Column::Storage>* storages;
  std::string alias;
  std::vector<KernelPlan::Pred>* preds;
  std::vector<KernelPlan::InList>* in_lists;
  int next_param = 0;
};

Status CompileWhere(const Expr& e, CompileCtx* ctx) {
  if (e.kind == ExprKind::kBinary && e.op == "AND") {
    HQ_RETURN_IF_ERROR(CompileWhere(*e.lhs, ctx));
    return CompileWhere(*e.rhs, ctx);
  }
  KernelPlan::Pred p;
  LitCmp c;
  if (IsFalseLiteral(e)) {
    p.kind = KernelPlan::Pred::Kind::kFalse;
  } else if (MatchLitCmp(e, &c)) {
    p.kind = KernelPlan::Pred::Kind::kCmp;
    p.op = c.op;
    p.pass_null = c.pass_null;
    p.col = ResolveCol(*c.col, *ctx->schema, ctx->alias);
    if (p.col < 0) return Unsupported("kernel: unresolved filter column");
    // A class mismatch raises the interpreter's comparison type error on
    // every non-NULL row, with or without `OR col IS NULL`.
    auto mode = CmpModeFor((*ctx->storages)[p.col], ClassOf(c.lit));
    if (!mode) return Unsupported("kernel: comparison type classes differ");
    p.mode = *mode;
    p.p0 = ctx->next_param++;
  } else if (e.kind == ExprKind::kInList) {
    p.kind = KernelPlan::Pred::Kind::kInList;
    p.negated = e.negated;
    p.col = ResolveCol(*e.lhs, *ctx->schema, ctx->alias);
    if (p.col < 0) return Unsupported("kernel: unresolved filter column");
    KernelPlan::InList il;
    il.modes.reserve(e.args.size());
    il.slots.reserve(e.args.size());
    for (const ExprPtr& a : e.args) {
      Datum item;
      FoldLiteral(*a, &item);
      if (item.is_null()) il.has_null_item = true;
      il.modes.push_back(EqModeFor((*ctx->storages)[p.col], ClassOf(item)));
      il.slots.push_back(ctx->next_param++);
    }
    p.p0 = static_cast<int>(ctx->in_lists->size());
    ctx->in_lists->push_back(std::move(il));
  } else if (e.kind == ExprKind::kIsNull) {
    p.kind = KernelPlan::Pred::Kind::kIsNull;
    p.negated = e.negated;
    p.col = ResolveCol(*e.lhs, *ctx->schema, ctx->alias);
    if (p.col < 0) return Unsupported("kernel: unresolved filter column");
  } else {
    Datum lo, hi;
    FoldLiteral(*e.low, &lo);
    FoldLiteral(*e.high, &hi);
    p.kind = KernelPlan::Pred::Kind::kBetween;
    p.negated = e.negated;
    p.col = ResolveCol(*e.lhs, *ctx->schema, ctx->alias);
    if (p.col < 0) return Unsupported("kernel: unresolved filter column");
    if (lo.is_null() || hi.is_null()) {
      // Any NULL bound makes the whole predicate evaluate to NULL before
      // the bound comparison, so neither bound can raise a type error.
      p.lo_mode = KernelPlan::CmpMode::kNever;
      p.hi_mode = KernelPlan::CmpMode::kNever;
    } else {
      auto lo_mode = CmpModeFor((*ctx->storages)[p.col], ClassOf(lo));
      auto hi_mode = CmpModeFor((*ctx->storages)[p.col], ClassOf(hi));
      if (!lo_mode || !hi_mode) {
        return Unsupported("kernel: BETWEEN type classes differ");
      }
      p.lo_mode = *lo_mode;
      p.hi_mode = *hi_mode;
    }
    p.p0 = ctx->next_param++;
    p.p1 = ctx->next_param++;
  }
  ctx->preds->push_back(p);
  return Status::OK();
}

/// True when the column is globally non-NULL and non-decreasing — i.e. a
/// stable ascending sort of it is the identity permutation. O(n) scan at
/// compile time, run only for declared-sorted columns (the loader's
/// ordcol / sort_keys); the result holds for this buffer only, so Execute
/// re-checks buffer identity (KernelPlan::ScanOrdered).
bool ColumnSortedNonNull(const Column& col, size_t n) {
  if (n == 0) return true;
  if (col.storage() == Column::Storage::kEmpty) return false;  // all NULL
  for (uint8_t b : col.null_bytes()) {
    if (b != 0) return false;
  }
  for (size_t r = 1; r < n; ++r) {
    if (CompareCells(col, r - 1, r) > 0) return false;
  }
  return true;
}

}  // namespace

Result<std::shared_ptr<const KernelPlan>> KernelPlan::Compile(
    const SelectStmt& stmt, const Catalog& catalog) {
  const std::string& name = stmt.from->name;
  // Catalog tables shadow catalog views in the executor's lookup order;
  // views (or missing tables) take the interpreted path.
  if (!catalog.HasTable(name)) {
    return Unsupported("kernel: not a catalog base table");
  }
  HQ_ASSIGN_OR_RETURN(std::shared_ptr<StoredTable> table,
                      catalog.GetTable(name));

  auto plan = std::shared_ptr<KernelPlan>(new KernelPlan());
  plan->table_name_ = name;
  plan->schema_ = table->columns;
  if (table->data.size() != table->columns.size()) {
    return Unsupported("kernel: table missing column buffers");
  }
  for (const ColumnPtr& c : table->data) {
    if (c == nullptr || c->size() != table->row_count) {
      return Unsupported("kernel: ragged column buffers");
    }
    if (c->storage() == Column::Storage::kMixed) {
      return Unsupported("kernel: mixed-datum column");
    }
    plan->storages_.push_back(c->storage());
  }

  const std::string alias =
      stmt.from->alias.empty() ? name : stmt.from->alias;

  CompileCtx ctx{&plan->schema_, &plan->storages_, alias,
                 &plan->preds_,  &plan->in_lists_,  0};
  if (stmt.where != nullptr) {
    HQ_RETURN_IF_ERROR(CompileWhere(*stmt.where, &ctx));
  }

  // The scan relation's column metadata, for exact InferType reuse.
  Relation meta;
  for (size_t i = 0; i < plan->schema_.size(); ++i) {
    meta.cols.push_back(
        RelColumn{alias, plan->schema_[i].name, plan->schema_[i].type});
  }

  bool has_agg = false;
  for (const SelectItem& item : stmt.items) {
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kStar) {
      // Projection-path star: expand like the interpreted projection does,
      // alias = column name, honoring a qualifier filter.
      bool any = false;
      for (size_t i = 0; i < plan->schema_.size(); ++i) {
        if (!e.qualifier.empty() && e.qualifier != alias) continue;
        Item it;
        it.col = static_cast<int>(i);
        it.name = plan->schema_[i].name;
        it.type = plan->schema_[i].type;
        plan->items_.push_back(std::move(it));
        any = true;
      }
      if (!any) return Unsupported("kernel: star expands to no columns");
      continue;
    }
    Item it;
    if (e.kind == ExprKind::kColRef) {
      it.col = ResolveCol(e, plan->schema_, alias);
      if (it.col < 0) return Unsupported("kernel: unresolved select column");
    } else {
      has_agg = true;
      it.is_agg = true;
      const Expr& call = *KernelAggregateOf(e, &it.agg.if_null);
      it.agg.call = &call == &e ? item.expr : e.args[0];
      if (call.args.size() == 1 && call.args[0]->kind == ExprKind::kColRef) {
        it.agg.col = ResolveCol(*call.args[0], plan->schema_, alias);
        if (it.agg.col < 0) {
          return Unsupported("kernel: unresolved aggregate column");
        }
        if (plan->storages_[it.agg.col] == Column::Storage::kString &&
            !(call.func_name == "count" || call.func_name == "min" ||
              call.func_name == "max" || call.func_name == "first" ||
              call.func_name == "last")) {
          // Numeric reductions over strings funnel through the collected
          // row path; leave those to the interpreter.
          return Unsupported("kernel: numeric aggregate over strings");
        }
      }
    }
    it.name = OutputNameOf(item);
    it.type = Executor::InferType(e, meta);
    plan->items_.push_back(std::move(it));
  }

  plan->grouped_ = has_agg || !stmt.group_by.empty();
  for (const ExprPtr& g : stmt.group_by) {
    int c = ResolveCol(*g, plan->schema_, alias);
    if (c < 0) return Unsupported("kernel: unresolved group column");
    plan->group_cols_.push_back(c);
  }

  // ORDER BY keys resolve against the output items exactly like the
  // interpreted ApplyOrderBy (ordinals are 1-based; unqualified names take
  // the first select-list match).
  for (const OrderItem& k : stmt.order_by) {
    const Expr& e = *k.expr;
    int idx = -1;
    if (e.kind == ExprKind::kConst) {
      int64_t ord = e.datum.AsInt();
      if (ord < 1 || ord > static_cast<int64_t>(plan->items_.size())) {
        return Unsupported("kernel: ORDER BY position out of range");
      }
      idx = static_cast<int>(ord - 1);
    } else {
      for (size_t i = 0; i < plan->items_.size(); ++i) {
        if (plan->items_[i].name == e.column) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0) {
        // The interpreter would sort over the pre-projection relation;
        // that machinery stays interpreted.
        return Unsupported("kernel: ORDER BY key not in the select list");
      }
    }
    plan->order_keys_.push_back({idx, k.ascending, k.nulls_first});
  }

  // ordcol elision: a lone ascending key over a column the loader declared
  // scan-sorted (the synthetic ordcol, or any advisory sort key) sorts a
  // sequence the fused scan already produces in that order — a filter only
  // drops rows from a sorted sequence, and a stable sort of a sorted,
  // NULL-free column is the identity — so the sort can be skipped. The
  // declaration is only a hint: an O(n) compile-time scan proves
  // sortedness of this buffer, and the key stays in the plan so Execute
  // sorts whenever it scans a different buffer.
  if (!plan->grouped_ && plan->order_keys_.size() == 1 &&
      plan->order_keys_[0].ascending) {
    const Item& it = plan->items_[plan->order_keys_[0].col];
    if (!it.is_agg && it.col >= 0) {
      const std::string& cname = plan->schema_[it.col].name;
      bool declared =
          cname == kSqlOrdColName ||
          std::find(table->sort_keys.begin(), table->sort_keys.end(),
                    cname) != table->sort_keys.end();
      if (declared &&
          ColumnSortedNonNull(*table->data[it.col], table->row_count)) {
        plan->elided_col_ = it.col;
        plan->elided_col_ptr_ = table->data[it.col];
      }
    }
  }

  if (stmt.limit != nullptr) {
    plan->has_limit_ = true;
    plan->limit_slot_ = ctx.next_param++;
  }
  if (stmt.offset != nullptr) {
    plan->has_offset_ = true;
    plan->offset_slot_ = ctx.next_param++;
  }
  return std::shared_ptr<const KernelPlan>(plan);
}

bool KernelPlan::GuardOk(const StoredTable& table) const {
  if (table.columns.size() != schema_.size() ||
      table.data.size() != schema_.size()) {
    return false;
  }
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (table.columns[i].name != schema_[i].name ||
        table.columns[i].type != schema_[i].type) {
      return false;
    }
    if (table.data[i] == nullptr ||
        table.data[i]->storage() != storages_[i] ||
        table.data[i]->size() != table.row_count) {
      return false;
    }
  }
  return true;
}

bool KernelPlan::ScanOrdered(const StoredTable& table) const {
  if (order_keys_.empty()) return true;
  return elided_col_ >= 0 &&
         elided_col_ptr_.lock() == table.data[elided_col_];
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

/// A predicate with its literal slots spliced for this execution.
struct BoundPred {
  Pred p;
  int64_t i0 = 0, i1 = 0;
  double d0 = 0, d1 = 0;
  const std::string* s0 = nullptr;
  const std::string* s1 = nullptr;
  /// kInList: the plan's membership list plus this execution's item
  /// values, parallel to inl->modes (only the mode-active lane is bound).
  const KernelPlan::InList* inl = nullptr;
  std::vector<int64_t> in_i;
  std::vector<double> in_d;
  std::vector<const std::string*> in_s;
};

/// Three-way "column value vs spliced bound" under the mode's typing.
inline int Cmp3Bound(CmpMode mode, const ColView& c, size_t r, int64_t bi,
                     double bd, const std::string* bs) {
  switch (mode) {
    case CmpMode::kIntInt: {
      int64_t x = c.iv[r];
      return (x > bi) - (x < bi);
    }
    case CmpMode::kIntDouble:
      return Cmp3Double(static_cast<double>(c.iv[r]), bd);
    case CmpMode::kDouble:
      return Cmp3Double(c.dv[r], bd);
    case CmpMode::kString: {
      int s = (*c.sv)[r].compare(*bs);
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

void ApplyPred(const BoundPred& bp, const std::vector<ColView>& cols,
               bool first, size_t lo, size_t hi, SelVector* sel) {
  const Pred& p = bp.p;
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
          const int64_t b = bp.i0;
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
          const double b = bp.d0;
          FillOrCompact(
              first, lo, hi, sel, [iv, nulls, b, op, pass_null](size_t r) {
                if (nulls != nullptr && nulls[r] != 0) return pass_null;
                return CmpHolds(op, Cmp3Double(static_cast<double>(iv[r]), b));
              });
          return;
        }
        case CmpMode::kDouble: {
          const double* dv = c.dv;
          const double b = bp.d0;
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
          const std::string* b = bp.s0;
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
      if (p.lo_mode == CmpMode::kNever || p.hi_mode == CmpMode::kNever ||
          c.st == Column::Storage::kEmpty) {
        FillOrCompact(first, lo, hi, sel, [](size_t) { return false; });
        return;
      }
      const bool neg = p.negated;
      FillOrCompact(first, lo, hi, sel, [&bp, &c, nulls, neg](size_t r) {
        if (nulls != nullptr && nulls[r] != 0) return false;
        const int c1 = Cmp3Bound(bp.p.lo_mode, c, r, bp.i0, bp.d0, bp.s0);
        const int c2 = Cmp3Bound(bp.p.hi_mode, c, r, bp.i1, bp.d1, bp.s1);
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
      if ((neg && bp.inl->has_null_item) ||
          c.st == Column::Storage::kEmpty) {
        FillOrCompact(first, lo, hi, sel, [](size_t) { return false; });
        return;
      }
      const KernelPlan::InList& il = *bp.inl;
      const size_t ni = il.modes.size();
      FillOrCompact(first, lo, hi, sel, [&, nulls, neg, ni](size_t r) {
        if (nulls != nullptr && nulls[r] != 0) return false;
        bool eq = false;
        for (size_t i = 0; i < ni && !eq; ++i) {
          switch (il.modes[i]) {
            case CmpMode::kIntInt:
              eq = c.iv[r] == bp.in_i[i];
              break;
            case CmpMode::kIntDouble:
              eq = static_cast<double>(c.iv[r]) == bp.in_d[i];
              break;
            case CmpMode::kDouble:
              eq = DistinctEqualsDouble(c.dv[r], bp.in_d[i]);
              break;
            case CmpMode::kString:
              eq = (*c.sv)[r] == *bp.in_s[i];
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

/// The plan's conjuncts bound to one execution: literal slots spliced and
/// the table's columns viewed.
struct BoundFilter {
  std::vector<BoundPred> preds;
  std::vector<ColView> cols;

  /// Fused filter over one morsel: survivors of all conjuncts land in
  /// `sel` (ascending). No full-table SelVector is ever materialized.
  Status operator()(size_t lo, size_t hi, SelVector* sel) const {
    sel->clear();
    sel->reserve(hi - lo);  // one allocation per morsel, not a regrowth
    if (preds.empty()) {
      for (size_t r = lo; r < hi; ++r) {
        sel->push_back(static_cast<uint32_t>(r));
      }
      return Status::OK();
    }
    bool first = true;
    for (const BoundPred& bp : preds) {
      ApplyPred(bp, cols, first, lo, hi, sel);
      first = false;
    }
    return Status::OK();
  }
};

Result<std::vector<BoundPred>> SplicePreds(
    const std::vector<Pred>& preds,
    const std::vector<KernelPlan::InList>& in_lists,
    const std::vector<Datum>& params) {
  std::vector<BoundPred> out;
  out.reserve(preds.size());
  for (const Pred& p : preds) {
    BoundPred bp;
    bp.p = p;
    auto bind = [&params](CmpMode mode, int slot, int64_t* bi, double* bd,
                          const std::string** bs) -> Status {
      if (mode == CmpMode::kNever) return Status::OK();
      if (slot < 0 || static_cast<size_t>(slot) >= params.size()) {
        return InternalError("kernel: literal slot out of range");
      }
      const Datum& d = params[slot];
      switch (mode) {
        case CmpMode::kIntInt:
          *bi = d.AsInt();
          break;
        case CmpMode::kIntDouble:
        case CmpMode::kDouble:
          *bd = d.AsDouble();
          break;
        case CmpMode::kString:
          *bs = &d.AsString();
          break;
        default:
          break;
      }
      return Status::OK();
    };
    if (p.kind == Pred::Kind::kCmp) {
      HQ_RETURN_IF_ERROR(bind(p.mode, p.p0, &bp.i0, &bp.d0, &bp.s0));
    } else if (p.kind == Pred::Kind::kBetween) {
      HQ_RETURN_IF_ERROR(bind(p.lo_mode, p.p0, &bp.i0, &bp.d0, &bp.s0));
      HQ_RETURN_IF_ERROR(bind(p.hi_mode, p.p1, &bp.i1, &bp.d1, &bp.s1));
    } else if (p.kind == Pred::Kind::kInList) {
      if (p.p0 < 0 || static_cast<size_t>(p.p0) >= in_lists.size()) {
        return InternalError("kernel: IN-list index out of range");
      }
      const KernelPlan::InList& il = in_lists[p.p0];
      bp.inl = &il;
      const size_t ni = il.modes.size();
      bp.in_i.resize(ni, 0);
      bp.in_d.resize(ni, 0);
      bp.in_s.resize(ni, nullptr);
      for (size_t i = 0; i < ni; ++i) {
        HQ_RETURN_IF_ERROR(
            bind(il.modes[i], il.slots[i], &bp.in_i[i], &bp.in_d[i],
                 &bp.in_s[i]));
      }
    }
    out.push_back(std::move(bp));
  }
  return out;
}

Result<BoundFilter> BindFilter(const std::vector<Pred>& preds,
                               const std::vector<KernelPlan::InList>& in_lists,
                               const std::vector<Datum>& params,
                               const StoredTable& table) {
  BoundFilter f;
  HQ_ASSIGN_OR_RETURN(f.preds, SplicePreds(preds, in_lists, params));
  f.cols.reserve(table.data.size());
  for (const ColumnPtr& c : table.data) f.cols.push_back(ViewOf(*c));
  return f;
}

}  // namespace

Result<Relation> KernelPlan::ExecuteGrouped(
    const StoredTable& table, const std::vector<Datum>& params) const {
  const Deadline dl = Deadline::Current();
  HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "scan/join"));
  const size_t n = table.row_count;

  HQ_ASSIGN_OR_RETURN(const BoundFilter filter,
                      BindFilter(preds_, in_lists_, params, table));
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
        RelColumn{"", item.name, RefinedType(item.type, *col, ngroups)});
    out.columns.push_back(std::move(col));
  }
  HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "group/aggregate"));
  return ApplyOrderAndLimit(std::move(out), params, ScanOrdered(table));
}

Result<Relation> KernelPlan::ExecuteProject(
    const StoredTable& table, const std::vector<Datum>& params) const {
  const Deadline dl = Deadline::Current();
  HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "scan/join"));
  const size_t n = table.row_count;
  const bool scan_ordered = ScanOrdered(table);

  std::unordered_map<int, ColumnPtr> gathered;
  size_t out_rows = n;
  if (!preds_.empty()) {
    HQ_ASSIGN_OR_RETURN(const BoundFilter filter,
                        BindFilter(preds_, in_lists_, params, table));
    SelVector sel;
    // LIMIT early-exit: with no sort left to satisfy, survivors are taken
    // in scan order, so the morsel loop can stop once OFFSET+LIMIT rows
    // survived (at least one, so the first-survivor type refinement below
    // still sees what the interpreter's full scan would). The collected
    // prefix is identical to the interpreter's prefix by construction.
    bool early_done = false;
    if (has_limit_ && scan_ordered) {
      const int64_t limit = params[limit_slot_].AsInt();
      const int64_t offset =
          has_offset_ ? params[offset_slot_].AsInt() : 0;
      if (limit >= 0) {
        uint64_t need = static_cast<uint64_t>(limit) +
                        static_cast<uint64_t>(offset > 0 ? offset : 0);
        if (need < 1) need = 1;
        SelVector part;
        for (size_t lo = 0; lo < n && sel.size() < need;
             lo += kMorselRows) {
          HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "filter morsel"));
          size_t hi = std::min(n, lo + kMorselRows);
          HQ_RETURN_IF_ERROR(filter(lo, hi, &part));
          sel.insert(sel.end(), part.begin(), part.end());
        }
        early_done = true;
      }
    }
    if (!early_done) {
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
      sub.cols.push_back(RelColumn{"", schema_[item.col].name,
                                   schema_[item.col].type});
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
        RelColumn{"", item.name, RefinedType(item.type, *col, out_rows)});
    out.columns.push_back(std::move(col));
  }
  return ApplyOrderAndLimit(std::move(out), params, scan_ordered);
}

Result<Relation> KernelPlan::ApplyOrderAndLimit(
    Relation out, const std::vector<Datum>& params, bool scan_ordered) const {
  // The interpreted ApplyOrderBy/ApplyLimit operators over the output
  // items. Identity permutations (0/1 rows) skip the gather; cell bytes
  // are unchanged either way.
  if (!scan_ordered && out.row_count > 1) {
    SelVector order = SortPermutation(out.columns, order_keys_, out.row_count);
    out = out.GatherRows(order.data(), order.size());
  }
  return LimitWindow(std::move(out),
                     has_limit_ ? params[limit_slot_].AsInt() : -1,
                     has_offset_ ? params[offset_slot_].AsInt() : 0);
}

Result<Relation> KernelPlan::Execute(const StoredTable& table,
                                     const std::vector<Datum>& params) const {
  return grouped_ ? ExecuteGrouped(table, params)
                  : ExecuteProject(table, params);
}

}  // namespace sqldb
}  // namespace hyperq
