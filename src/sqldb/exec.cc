#include "sqldb/exec.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "sqldb/operators.h"

namespace hyperq {
namespace sqldb {

namespace {

constexpr int kMaxViewDepth = 16;

/// Pair-chunk size for join condition evaluation; bounds the size of the
/// materialized candidate relation.
constexpr size_t kJoinChunkPairs = 64 * 1024;

/// Executor counters, surfaced through the metrics registry (and from
/// there .hyperq.stats[]). Resolved once; the registry owns the objects.
struct ExecMetrics {
  Counter* batches;
  Counter* rows;
  Counter* parallel_tasks;
  LatencyHistogram* morsel_us;

  static const ExecMetrics& Get() {
    static const ExecMetrics* m = [] {
      auto* out = new ExecMetrics();
      MetricsRegistry& reg = MetricsRegistry::Global();
      out->batches = reg.GetCounter("exec.batches");
      out->rows = reg.GetCounter("exec.rows");
      out->parallel_tasks = reg.GetCounter("exec.parallel_tasks");
      out->morsel_us = reg.GetHistogram("exec.morsel_us");
      return out;
    }();
    return *m;
  }
};

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Splits an expression into its top-level AND conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (!e) return;
  if (e->kind == ExprKind::kBinary && e->op == "AND") {
    SplitConjuncts(e->lhs, out);
    SplitConjuncts(e->rhs, out);
    return;
  }
  out->push_back(e);
}

std::string OutputName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  const Expr& e = *item.expr;
  if (e.kind == ExprKind::kColRef) return e.column;
  if (e.kind == ExprKind::kFuncCall || e.kind == ExprKind::kWindow) {
    return e.func_name;
  }
  return "?column?";
}

/// Marks in *mask the columns of `rel` that the column references under e
/// resolve to. Returns false as soon as one does not resolve.
bool MarkReferencedColumns(const Expr& e, const Relation& rel,
                           std::vector<uint8_t>* mask) {
  if (e.kind == ExprKind::kColRef) {
    Result<int> idx = rel.Resolve(e.qualifier, e.column);
    if (!idx.ok()) return false;
    (*mask)[*idx] = 1;
    return true;
  }
  for (const Expr* child : {e.lhs.get(), e.rhs.get(), e.low.get(),
                            e.high.get()}) {
    if (child != nullptr && !MarkReferencedColumns(*child, rel, mask)) {
      return false;
    }
  }
  for (const auto& a : e.args) {
    if (a && !MarkReferencedColumns(*a, rel, mask)) return false;
  }
  for (const auto& p : e.window.partition_by) {
    if (p && !MarkReferencedColumns(*p, rel, mask)) return false;
  }
  for (const auto& o : e.window.order_by) {
    if (o.expr && !MarkReferencedColumns(*o.expr, rel, mask)) return false;
  }
  return true;
}

/// Drops the columns of the FROM relation that `stmt` never reads, so WHERE
/// and grouping gather only what later clauses use: a flat SELECT over a
/// wide table would otherwise copy every column. Keeps every column when a
/// star selects them or a reference does not resolve, so errors are
/// reported over the full relation.
void DropUnreadColumns(const SelectStmt& stmt, Relation* rel) {
  std::vector<uint8_t> mask(rel->cols.size(), 0);
  std::vector<std::string> outputs;
  for (const auto& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar ||
        !MarkReferencedColumns(*item.expr, *rel, &mask)) {
      return;
    }
    outputs.push_back(OutputName(item));
  }
  for (const ExprPtr& e : {stmt.where, stmt.having}) {
    if (e && !MarkReferencedColumns(*e, *rel, &mask)) return;
  }
  for (const auto& g : stmt.group_by) {
    if (!MarkReferencedColumns(*g, *rel, &mask)) return;
  }
  for (const auto& o : stmt.order_by) {
    // Unqualified output names sort the output, not this relation.
    const Expr& e = *o.expr;
    if (e.kind == ExprKind::kColRef && e.qualifier.empty() &&
        std::find(outputs.begin(), outputs.end(), e.column) !=
            outputs.end()) {
      continue;
    }
    if (!MarkReferencedColumns(e, *rel, &mask)) return;
  }
  if (std::find(mask.begin(), mask.end(), 0) == mask.end()) return;
  Relation narrow;
  narrow.row_count = rel->row_count;
  for (size_t c = 0; c < mask.size(); ++c) {
    if (!mask[c]) continue;
    narrow.cols.push_back(std::move(rel->cols[c]));
    narrow.columns.push_back(std::move(rel->columns[c]));
  }
  *rel = std::move(narrow);
}

/// Evaluates a filter over rows [0, n) of ctx.rel, morsel-parallel when the
/// input is large and every column reference pre-resolves. Survivors are
/// written to *out in ascending row order regardless of scheduling; on
/// error the lowest failing morsel wins, matching sequential evaluation.
Status FilterRows(const Expr& e, const BatchCtx& ctx, size_t n,
                  SelVector* out) {
  const ExecMetrics& m = ExecMetrics::Get();
  m.rows->Increment(n);
  if (ShouldParallelize(n) && PreResolve(e, *ctx.rel)) {
    Result<SelVector> sel = FilterMorsels(
        n, true, Deadline::Current(),
        [&](size_t lo, size_t hi, SelVector* part) {
          double t0 = NowUs();
          SelVector morsel(hi - lo);
          std::iota(morsel.begin(), morsel.end(), static_cast<uint32_t>(lo));
          Status s = EvalFilter(e, ctx, morsel.data(), morsel.size(), part);
          m.morsel_us->Record(NowUs() - t0);
          return s;
        });
    m.batches->Increment(MorselCount(n));
    m.parallel_tasks->Increment(MorselCount(n));
    HQ_ASSIGN_OR_RETURN(*out, std::move(sel));
    return Status::OK();
  }
  m.batches->Increment(1);
  return EvalFilter(e, ctx, nullptr, n, out);
}

/// Groups rows sel[0..n) (sel == nullptr: rows [0, n)) by the key columns
/// on the shared group table (first-occurrence group order, ascending
/// members, which are rows of the key columns). Parallel morsels record
/// their time in exec.morsel_us.
Result<std::vector<SelVector>> GroupRows(const std::vector<ColumnPtr>& keys,
                                         const uint32_t* sel, size_t n,
                                         bool parallel) {
  const ExecMetrics& m = ExecMetrics::Get();
  return GroupMembers(keys, n, parallel, Deadline::Current(),
                      [&](size_t lo, size_t hi, auto&& add) {
                        double t0 = parallel ? NowUs() : 0;
                        for (size_t i = lo; i < hi; ++i) {
                          add(sel ? sel[i] : static_cast<uint32_t>(i));
                        }
                        if (parallel) m.morsel_us->Record(NowUs() - t0);
                        return Status::OK();
                      });
}

/// Whether grouping can read the ungathered input through the WHERE
/// selection: every group key and aggregate argument is a plain column,
/// whose stored cells are the values a gather would copy.
bool GroupsThroughSelection(const SelectStmt& stmt,
                            const std::vector<const Expr*>& aggs) {
  for (const auto& g : stmt.group_by) {
    if (g->kind != ExprKind::kColRef) return false;
  }
  for (const Expr* agg : aggs) {
    for (const auto& a : agg->args) {
      if (a->kind != ExprKind::kColRef && a->kind != ExprKind::kStar) {
        return false;
      }
    }
  }
  return true;
}

/// The truth of a null test (boolean constants and IS [NOT] NULL over
/// column references, under NOT, AND and OR) on a row where columns a and
/// b of `schema` are non-NULL: 1 TRUE, 0 FALSE, -1 unknown. nullopt when
/// `e` is no null test or a reference does not resolve.
std::optional<int> NullTestTruth(const Expr& e, const Relation& schema, int a,
                                 int b) {
  switch (e.kind) {
    case ExprKind::kConst:
      if (e.datum.is_null()) return -1;
      if (e.datum.type() != SqlType::kBoolean) return std::nullopt;
      return DatumIsTrue(e.datum) ? 1 : 0;
    case ExprKind::kIsNull: {
      if (e.lhs->kind != ExprKind::kColRef) return std::nullopt;
      Result<int> c = schema.Resolve(e.lhs->qualifier, e.lhs->column);
      if (!c.ok()) return std::nullopt;
      if (*c != a && *c != b) return -1;
      return e.negated ? 1 : 0;
    }
    case ExprKind::kUnary: {
      if (e.op != "NOT") return std::nullopt;
      std::optional<int> t = NullTestTruth(*e.lhs, schema, a, b);
      if (!t || *t < 0) return t;
      return 1 - *t;
    }
    case ExprKind::kBinary: {
      if (e.op != "AND" && e.op != "OR") return std::nullopt;
      std::optional<int> x = NullTestTruth(*e.lhs, schema, a, b);
      std::optional<int> y = NullTestTruth(*e.rhs, schema, a, b);
      if (!x || !y) return std::nullopt;
      const int decides = e.op == "AND" ? 0 : 1;  // FALSE for AND, TRUE for OR
      if (*x == decides || *y == decides) return decides;
      return *x < 0 || *y < 0 ? -1 : 1 - decides;
    }
    default:
      return std::nullopt;
  }
}

/// The comparison `x op y` (two column references, op one of < > <= >=)
/// through which `e` bounds a join: `e` is that comparison,
/// COALESCE(bound, null tests...), or `bound OR n` (either way round) with
/// n a null test that is FALSE whenever x and y are both non-NULL. On a
/// pair where x and y are non-NULL, `e` is then TRUE exactly when the
/// comparison is, and no part of it can fail. nullptr for anything else.
const Expr* BoundingCmp(const Expr& e, const Relation& schema) {
  // Whether `n` is a null test that is FALSE wherever cmp's columns are
  // non-NULL (`want` 0), or any null test (`want` nullopt).
  auto null_test = [&](const Expr& n, const Expr& cmp,
                       std::optional<int> want) {
    Result<int> a = schema.Resolve(cmp.lhs->qualifier, cmp.lhs->column);
    Result<int> b = schema.Resolve(cmp.rhs->qualifier, cmp.rhs->column);
    std::optional<int> t =
        NullTestTruth(n, schema, a.ok() ? *a : -1, b.ok() ? *b : -1);
    return t.has_value() && (!want || t == want);
  };
  if (e.kind == ExprKind::kBinary && CmpOpIndex(e.op) >= 2 &&
      e.lhs->kind == ExprKind::kColRef && e.rhs->kind == ExprKind::kColRef) {
    return &e;
  }
  if (e.kind == ExprKind::kFuncCall && e.func_name == "coalesce" &&
      !e.args.empty()) {
    const Expr* cmp = BoundingCmp(*e.args[0], schema);
    if (cmp == nullptr) return nullptr;
    for (size_t i = 1; i < e.args.size(); ++i) {
      if (!null_test(*e.args[i], *cmp, std::nullopt)) return nullptr;
    }
    return cmp;
  }
  if (e.kind == ExprKind::kBinary && e.op == "OR") {
    for (const auto& [bound, n] : {std::pair{&e.lhs, &e.rhs},
                                   std::pair{&e.rhs, &e.lhs}}) {
      const Expr* cmp = BoundingCmp(**bound, schema);
      if (cmp != nullptr && null_test(**n, *cmp, 0)) return cmp;
    }
  }
  return nullptr;
}

/// The band bounds of a hash join's residual: its leading conjuncts that
/// bound (BoundingCmp) a comparison between a kInt column of each side,
/// as `right op left`. The scan stops at the first other conjunct, so a
/// pair the bounds rule out is one the residual drops before it reaches
/// anything that could fail.
std::vector<BandBound> BandBounds(const std::vector<ExprPtr>& residual,
                                  const Relation& left, const Relation& right,
                                  const Relation& schema) {
  std::vector<BandBound> bounds;
  const int nleft = static_cast<int>(left.cols.size());
  for (const ExprPtr& c : residual) {
    const Expr* cmp = BoundingCmp(*c, schema);
    if (cmp == nullptr) break;
    Result<int> x = schema.Resolve(cmp->lhs->qualifier, cmp->lhs->column);
    Result<int> y = schema.Resolve(cmp->rhs->qualifier, cmp->rhs->column);
    if (!x.ok() || !y.ok() || (*x < nleft) == (*y < nleft)) break;
    int op = CmpOpIndex(cmp->op);
    if (*x < nleft) {  // `left op right`
      std::swap(*x, *y);
      op = FlipCmpOp(op);
    }
    const Column* r = right.columns[*x - nleft].get();
    const Column* l = left.columns[*y].get();
    if (r->storage() != Column::Storage::kInt ||
        l->storage() != Column::Storage::kInt) {
      break;
    }
    bounds.push_back({r, l, op});
  }
  return bounds;
}

/// The running sum, count, avg, min or max of `arg` along `seq`: entry p
/// is the aggregate over seq[0..p], with the value and type
/// ComputeAggregateColumnar gives that frame (NULLs skipped, values added
/// in seq order). `arg` is an int or float column, or nullptr for
/// COUNT(*).
std::vector<Datum> RunningAggregate(const std::string& f, const Column* arg,
                                    const SelVector& seq) {
  std::vector<Datum> out(seq.size());
  if (arg == nullptr) {
    for (size_t p = 0; p < seq.size(); ++p) {
      out[p] = Datum::BigInt(static_cast<int64_t>(p + 1));
    }
    return out;
  }
  enum class Fn { kSum, kCount, kAvg, kMin, kMax };
  const Fn fn = f == "sum"   ? Fn::kSum
                : f == "count" ? Fn::kCount
                : f == "avg" ? Fn::kAvg
                : f == "min" ? Fn::kMin
                             : Fn::kMax;
  const bool is_float = arg->storage() == Column::Storage::kFloat;
  const int64_t* iv = arg->ints();
  const double* fv = arg->floats();
  const uint8_t* nulls = NullBytesOf(*arg);
  const SqlType vt = arg->value_type();
  int64_t count = 0, isum = 0, ibest = 0;
  double dsum = 0, dbest = 0;
  for (size_t p = 0; p < seq.size(); ++p) {
    const uint32_t r = seq[p];
    if (nulls == nullptr || nulls[r] == 0) {
      if (fn == Fn::kMin || fn == Fn::kMax) {
        // ComputeAggregateColumnar's comparisons, NaN placement included.
        const int cmp = count == 0 ? (fn == Fn::kMin ? -1 : 1)
                        : is_float ? Cmp3Double(fv[r], dbest)
                                   : (iv[r] > ibest) - (iv[r] < ibest);
        if (fn == Fn::kMin ? cmp < 0 : cmp > 0) {
          if (is_float) {
            dbest = fv[r];
          } else {
            ibest = iv[r];
          }
        }
      } else if (is_float || fn == Fn::kAvg) {
        dsum += is_float ? fv[r] : static_cast<double>(iv[r]);
      } else {
        isum += iv[r];
      }
      ++count;
    }
    if (fn == Fn::kCount) {
      out[p] = Datum::BigInt(count);
    } else if (count == 0) {
      continue;  // NULL
    } else if (fn == Fn::kSum) {
      out[p] = is_float ? Datum::Double(dsum) : Datum::BigInt(isum);
    } else if (fn == Fn::kAvg) {
      out[p] = Datum::Double(dsum / static_cast<double>(count));
    } else {
      out[p] = is_float ? Datum::Float(vt, dbest) : Datum::Int(vt, ibest);
    }
  }
  return out;
}

/// A window node's result column from ComputeWindows' per-row results:
/// `ints` (ranks, row numbers), else `source` (the row of `arg` LAG/LEAD
/// reads, -1 for none, which takes `dflt` at that row or NULL), else
/// `values`. The cells and storage are those of appending each row's value
/// in row order.
ColumnPtr WindowColumn(std::vector<int64_t>& ints,
                       const std::vector<int64_t>& source,
                       const std::vector<Datum>& values, const Column* arg,
                       const Column* dflt) {
  if (!ints.empty()) return Column::FromInts(SqlType::kBigInt, std::move(ints));
  auto out = std::make_shared<Column>();
  if (!source.empty()) {
    const bool any = std::any_of(source.begin(), source.end(),
                                 [](int64_t r) { return r >= 0; });
    if (any && dflt == nullptr && arg->storage() != Column::Storage::kMixed) {
      return arg->GatherPad(source.data(), source.size());
    }
    for (size_t i = 0; i < source.size(); ++i) {
      if (source[i] >= 0) {
        out->Append(arg->At(source[i]));
      } else if (dflt != nullptr) {
        out->Append(dflt->At(i));
      } else {
        out->AppendNull();
      }
    }
    return out;
  }
  for (const Datum& v : values) out->Append(v);
  return out;
}

/// The LIMIT and OFFSET constants of `stmt` (-1 and 0 when absent).
Status LimitBounds(const SelectStmt& stmt, int64_t* limit, int64_t* offset) {
  auto eval_const = [&](const ExprPtr& e, int64_t* out) -> Status {
    if (!e) return Status::OK();
    EvalCtx ctx;
    HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e, ctx));
    if (v.is_null() || !IsIntegralType(v.type())) {
      return BindError("LIMIT/OFFSET must be integer constants");
    }
    *out = v.AsInt();
    return Status::OK();
  };
  HQ_RETURN_IF_ERROR(eval_const(stmt.limit, limit));
  return eval_const(stmt.offset, offset);
}

}  // namespace

SqlType Executor::InferType(const Expr& e, const Relation& input) {
  switch (e.kind) {
    case ExprKind::kConst:
      return e.datum.is_null() ? SqlType::kText : e.datum.type();
    case ExprKind::kColRef: {
      auto idx = input.Resolve(e.qualifier, e.column);
      return idx.ok() ? input.cols[*idx].type : SqlType::kText;
    }
    case ExprKind::kStar:
      return SqlType::kText;
    case ExprKind::kUnary:
      if (e.op == "NOT") return SqlType::kBoolean;
      return InferType(*e.lhs, input);
    case ExprKind::kBinary: {
      const std::string& op = e.op;
      if (CmpOpIndex(op) >= 0 || op == "AND" || op == "OR" ||
          op == "LIKE" || op == "IS_DISTINCT" || op == "IS_NOT_DISTINCT") {
        return SqlType::kBoolean;
      }
      if (op == "||") return SqlType::kText;
      SqlType lt = InferType(*e.lhs, input);
      SqlType rt = InferType(*e.rhs, input);
      if (lt == SqlType::kReal || lt == SqlType::kDouble ||
          rt == SqlType::kReal || rt == SqlType::kDouble) {
        return SqlType::kDouble;
      }
      if (IsTemporalType(lt) && !IsTemporalType(rt)) return lt;
      if (IsTemporalType(rt) && !IsTemporalType(lt)) return rt;
      if (IsTemporalType(lt) && lt == rt) {
        // Temporal difference is a count; other ops stay temporal.
        return op == "-" ? SqlType::kBigInt : lt;
      }
      return SqlType::kBigInt;
    }
    case ExprKind::kIsNull:
    case ExprKind::kInList:
    case ExprKind::kBetween:
      return SqlType::kBoolean;
    case ExprKind::kCase: {
      if (e.args.size() >= 2) return InferType(*e.args[1], input);
      return SqlType::kText;
    }
    case ExprKind::kCast:
      return e.cast_type;
    case ExprKind::kFuncCall:
    case ExprKind::kWindow: {
      const std::string& f = e.func_name;
      if (f == "count" || f == "row_number" || f == "rank" ||
          f == "dense_rank" || f == "length" || f == "char_length" ||
          f == "mod" || f == "sign") {
        return SqlType::kBigInt;
      }
      if (f == "avg" || f == "median" || f == "stddev" ||
          f == "stddev_pop" || f == "variance" || f == "var_pop" ||
          f == "sqrt" || f == "exp" || f == "ln" || f == "log" ||
          f == "power" || f == "floor" || f == "ceil" || f == "ceiling" ||
          f == "round") {
        return SqlType::kDouble;
      }
      if (f == "bool_and" || f == "bool_or") return SqlType::kBoolean;
      if (f == "lower" || f == "upper" || f == "substr" ||
          f == "substring" || f == "concat") {
        return SqlType::kText;
      }
      if (!e.args.empty()) return InferType(*e.args[0], input);
      return SqlType::kBigInt;
    }
  }
  return SqlType::kText;
}

Result<Relation> Executor::ExecuteSelect(const SelectStmt& stmt) {
  const Deadline deadline = Deadline::Current();
  HQ_ASSIGN_OR_RETURN(CoreResult core, ExecCore(stmt));

  if (!stmt.union_all.empty()) {
    for (const auto& u : stmt.union_all) {
      HQ_RETURN_IF_ERROR(CancelIfExpired(deadline, "union member"));
      HQ_ASSIGN_OR_RETURN(CoreResult next, ExecCore(*u));
      if (next.output.cols.size() != core.output.cols.size()) {
        return BindError(StrCat(
            "UNION ALL member has ", next.output.cols.size(),
            " columns, expected ", core.output.cols.size()));
      }
      // Column-wise concat (copy-on-write protects shared scans).
      for (size_t c = 0; c < core.output.columns.size(); ++c) {
        core.output.MutableColumn(c)->AppendColumn(*next.output.columns[c]);
      }
      core.output.row_count += next.output.row_count;
    }
    // ORDER BY over a union may only reference output columns/ordinals.
    if (!stmt.order_by.empty()) {
      CoreResult for_order;
      for_order.output = std::move(core.output);
      for_order.work = for_order.output;  // resolve against outputs
      for_order.distinct_applied = true;  // forces output-only resolution
      HQ_RETURN_IF_ERROR(ApplyOrderBy(stmt, &for_order));
      return std::move(for_order.output);
    }
  } else if (!stmt.order_by.empty()) {
    HQ_RETURN_IF_ERROR(CancelIfExpired(deadline, "order by"));
    HQ_RETURN_IF_ERROR(ApplyOrderBy(stmt, &core));
    return std::move(core.output);
  }
  int64_t limit = -1, offset = 0;
  HQ_RETURN_IF_ERROR(LimitBounds(stmt, &limit, &offset));
  return LimitWindow(std::move(core.output), limit, offset);
}

Result<Executor::CoreResult> Executor::ExecCore(const SelectStmt& stmt) {
  const ExecMetrics& metrics = ExecMetrics::Get();
  const Deadline deadline = Deadline::Current();

  // ---- FROM ----
  Relation input;
  if (stmt.from) {
    HQ_ASSIGN_OR_RETURN(input, EvalTableRef(*stmt.from));
    DropUnreadColumns(stmt, &input);
  }
  HQ_RETURN_IF_ERROR(CancelIfExpired(deadline, "scan/join"));
  if (!stmt.from) {
    input.AppendRow({});  // SELECT without FROM: one empty row
  }

  CoreResult core;
  std::vector<const Expr*> agg_nodes;
  for (const auto& item : stmt.items) CollectAggregates(item.expr, &agg_nodes);
  CollectAggregates(stmt.having, &agg_nodes);
  bool grouped = !stmt.group_by.empty() || !agg_nodes.empty();

  // ---- WHERE ----
  // Grouping over plain columns reads the input in place through the
  // selection (`where_sel`); everything else reads the gathered survivors.
  std::optional<SelVector> where_sel;
  if (stmt.where) {
    BatchCtx wctx;
    wctx.rel = &input;
    SelVector sel;
    HQ_RETURN_IF_ERROR(FilterRows(*stmt.where, wctx, input.row_count, &sel));
    if (grouped && GroupsThroughSelection(stmt, agg_nodes)) {
      where_sel = std::move(sel);
    } else {
      input = input.GatherRows(sel.data(), sel.size());
    }
  }

  // ---- GROUP BY / aggregates ----
  if (grouped) {
    // Rows to group: the selection's, else all of the input. Group members
    // are input rows either way.
    const uint32_t* sel = where_sel ? where_sel->data() : nullptr;
    const size_t n = where_sel ? where_sel->size() : input.row_count;

    // Group keys evaluate column-wise; rows are then bucketed on the
    // shared group table, whose adapter follows the key columns' storage.
    const BatchCtx ictx{&input, nullptr, nullptr};
    std::vector<ColumnPtr> key_cols;
    key_cols.reserve(stmt.group_by.size());
    for (const auto& g : stmt.group_by) {
      HQ_ASSIGN_OR_RETURN(ColumnPtr c,
                          EvalBatch(*g, ictx, nullptr, input.row_count));
      key_cols.push_back(std::move(c));
    }

    // Bucket rows by group key (order of first occurrence). Large inputs
    // build morsel-local groups in parallel, then merge in morsel order, so
    // group and member order match the sequential scan exactly.
    std::vector<SelVector> members;
    if (!key_cols.empty()) {
      const bool parallel = ShouldParallelize(n);
      HQ_ASSIGN_OR_RETURN(members, GroupRows(key_cols, sel, n, parallel));
      metrics.batches->Increment(parallel ? MorselCount(n) : 1);
      if (parallel) metrics.parallel_tasks->Increment(MorselCount(n));
      metrics.rows->Increment(n);
    } else if (where_sel) {
      // No GROUP BY: every row lands in one group.
      if (n > 0) members.push_back(std::move(*where_sel));
    } else if (n > 0) {
      members.emplace_back(n);
      std::iota(members[0].begin(), members[0].end(), 0);
    }
    // An aggregate query with no GROUP BY always yields one group, even
    // over zero rows.
    if (stmt.group_by.empty() && members.empty()) members.push_back({});

    size_t ngroups = members.size();

    // Representative rows: first member (empty groups use all-null).
    core.work =
        input.GatherRowsPad(RepresentativeRows(members).data(), ngroups);

    // Aggregates: evaluate each argument once over the full input as a
    // column, then reduce groups (in parallel for large inputs). Member
    // order within a group is ascending row order, so float accumulation
    // is bit-identical to the row-at-a-time path.
    core.agg_per_row.resize(ngroups);
    const bool par_aggs = ngroups > 1 && ShouldParallelize(n);
    for (const Expr* agg : agg_nodes) {
      if (ngroups > 0 && core.agg_per_row[0].count(agg) > 0) {
        continue;  // duplicate node, already computed
      }
      const std::string& f = agg->func_name;
      bool star = !agg->args.empty() &&
                  agg->args[0]->kind == ExprKind::kStar;
      ColumnPtr arg_col;  // stays null for COUNT(*)
      if (f != "count" || !(agg->args.empty() || star)) {
        if (agg->args.size() != 1 && f != "count") {
          return TypeError(StrCat("aggregate ", f, " takes one argument"));
        }
        HQ_ASSIGN_OR_RETURN(
            arg_col, EvalBatch(*agg->args[0], ictx, nullptr, input.row_count));
        metrics.batches->Increment(1);
        if (par_aggs) metrics.parallel_tasks->Increment(ngroups);
      }
      HQ_ASSIGN_OR_RETURN(
          std::vector<Datum> results,
          ReduceGroups(*agg, arg_col.get(), members, par_aggs, deadline));
      for (size_t g = 0; g < ngroups; ++g) {
        core.agg_per_row[g].emplace(agg, std::move(results[g]));
      }
    }

    // HAVING filters groups.
    if (stmt.having) {
      BatchCtx hctx{&core.work, &core.agg_per_row, nullptr};
      SelVector hsel;
      HQ_RETURN_IF_ERROR(EvalFilter(*stmt.having, hctx, nullptr,
                                    core.work.row_count, &hsel));
      core.work = core.work.GatherRows(hsel.data(), hsel.size());
      std::vector<std::unordered_map<const Expr*, Datum>> kept;
      kept.reserve(hsel.size());
      for (uint32_t i : hsel) kept.push_back(std::move(core.agg_per_row[i]));
      core.agg_per_row = std::move(kept);
    }
  } else {
    core.work = std::move(input);
  }

  HQ_RETURN_IF_ERROR(CancelIfExpired(deadline, "group/aggregate"));

  // ---- Window functions ----
  std::vector<const Expr*> window_nodes;
  for (const auto& item : stmt.items) CollectWindows(item.expr, &window_nodes);
  for (const auto& o : stmt.order_by) CollectWindows(o.expr, &window_nodes);
  if (!window_nodes.empty()) {
    HQ_RETURN_IF_ERROR(ComputeWindows(window_nodes, core.work,
                                      core.agg_per_row,
                                      &core.window_values));
  }

  // ---- Projection ----
  // Expand stars first.
  std::vector<SelectItem> items;
  for (const auto& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar) {
      for (size_t c = 0; c < core.work.cols.size(); ++c) {
        const RelColumn& col = core.work.cols[c];
        if (!item.expr->qualifier.empty() &&
            col.qualifier != item.expr->qualifier) {
          continue;
        }
        SelectItem expanded;
        expanded.expr = MakeColRef(col.qualifier, col.name);
        expanded.alias = col.name;
        items.push_back(std::move(expanded));
      }
      continue;
    }
    items.push_back(item);
  }
  if (items.empty()) return BindError("empty select list");

  size_t out_rows = core.work.row_count;
  core.output.cols.reserve(items.size());
  for (const auto& item : items) {
    RelColumn col;
    col.name = OutputName(item);
    col.type = InferType(*item.expr, core.work);
    core.output.cols.push_back(std::move(col));
  }
  BatchCtx pctx{&core.work,
                core.agg_per_row.empty() ? nullptr : &core.agg_per_row,
                core.window_values.empty() ? nullptr : &core.window_values};
  core.output.columns.reserve(items.size());
  for (size_t c = 0; c < items.size(); ++c) {
    HQ_ASSIGN_OR_RETURN(ColumnPtr col,
                        EvalBatch(*items[c].expr, pctx, nullptr, out_rows));
    core.output.cols[c].type =
        RefinedType(core.output.cols[c].type, *col, out_rows);
    core.output.columns.push_back(std::move(col));
  }
  core.output.row_count = out_rows;
  metrics.batches->Increment(items.size());
  metrics.rows->Increment(out_rows);

  // ---- DISTINCT ----
  // Keeps the first member of each group over all output columns.
  if (stmt.distinct) {
    HQ_ASSIGN_OR_RETURN(
        std::vector<SelVector> groups,
        GroupRows(core.output.columns, nullptr, out_rows, false));
    SelVector keep;
    keep.reserve(groups.size());
    for (const SelVector& g : groups) keep.push_back(g[0]);
    core.output = core.output.GatherRows(keep.data(), keep.size());
    core.distinct_applied = true;
  }
  return core;
}

Status Executor::ApplyOrderBy(const SelectStmt& stmt, CoreResult* core) {
  size_t n = core->output.row_count;
  // Evaluate sort keys as columns. Keys may be output ordinals, output
  // aliases, or (when no DISTINCT reshaped the rows) arbitrary expressions
  // over the pre-projection relation.
  std::vector<ColumnPtr> key_cols;
  key_cols.reserve(stmt.order_by.size());
  for (const auto& item : stmt.order_by) {
    const Expr& e = *item.expr;
    int out_idx = -1;
    if (e.kind == ExprKind::kConst && !e.datum.is_null() &&
        IsIntegralType(e.datum.type())) {
      int64_t ord = e.datum.AsInt();
      if (ord < 1 || ord > static_cast<int64_t>(core->output.cols.size())) {
        return BindError(StrCat("ORDER BY position ", ord,
                                " is out of range"));
      }
      out_idx = static_cast<int>(ord - 1);
    } else if (e.kind == ExprKind::kColRef && e.qualifier.empty()) {
      for (size_t c = 0; c < core->output.cols.size(); ++c) {
        if (core->output.cols[c].name == e.column) {
          out_idx = static_cast<int>(c);
          break;
        }
      }
    }
    if (out_idx >= 0) {
      key_cols.push_back(core->output.columns[out_idx]);  // zero-copy share
      continue;
    }
    if (core->distinct_applied) {
      return BindError(
          "ORDER BY expression must appear in the select list when "
          "DISTINCT/UNION is used");
    }
    if (core->work.row_count != n) {
      return InternalError("order-by source rows out of sync");
    }
    BatchCtx kctx{&core->work,
                  core->agg_per_row.empty() ? nullptr : &core->agg_per_row,
                  core->window_values.empty() ? nullptr
                                              : &core->window_values};
    HQ_ASSIGN_OR_RETURN(ColumnPtr kcol, EvalBatch(e, kctx, nullptr, n));
    key_cols.push_back(std::move(kcol));
  }

  std::vector<SortKey> keys;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    keys.push_back({static_cast<int>(k), stmt.order_by[k].ascending,
                    stmt.order_by[k].nulls_first});
  }
  // Only the LIMIT window of the order is sorted and gathered.
  int64_t limit = -1, offset = 0;
  HQ_RETURN_IF_ERROR(LimitBounds(stmt, &limit, &offset));
  const auto [start, end] = LimitRange(n, limit, offset);
  if (auto sel = SortPermutation(key_cols, keys, n, end)) {
    core->output =
        core->output.GatherRows(sel->data() + start, end - start);
  } else {
    core->output = LimitWindow(std::move(core->output), limit, offset);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FROM clause
// ---------------------------------------------------------------------------

Result<Relation> Executor::EvalTableRef(const TableRef& ref) {
  switch (ref.kind) {
    case TableRef::Kind::kNamed:
      return LookupNamed(ref.name, ref.alias.empty() ? ref.name : ref.alias);
    case TableRef::Kind::kSubquery: {
      HQ_ASSIGN_OR_RETURN(Relation rel, ExecuteSelect(*ref.subquery));
      for (auto& c : rel.cols) c.qualifier = ref.alias;
      return rel;
    }
    case TableRef::Kind::kJoin:
      return ExecJoin(ref);
  }
  return InternalError("unhandled table ref kind");
}

Result<Relation> Executor::LookupNamed(const std::string& name,
                                       const std::string& alias) {
  // Resolution order: session temp tables, catalog tables, session temp
  // views, catalog views.
  std::shared_ptr<StoredTable> table;
  if (session_ != nullptr) {
    auto it = session_->temp_tables().find(name);
    if (it != session_->temp_tables().end()) table = it->second;
  }
  if (!table && catalog_->HasTable(name)) {
    HQ_ASSIGN_OR_RETURN(table, catalog_->GetTable(name));
  }
  if (table) {
    // Zero-copy scan: the relation shares the stored column buffers.
    // Mutation anywhere downstream goes through copy-on-write.
    Relation rel;
    rel.cols.reserve(table->columns.size());
    rel.columns.reserve(table->columns.size());
    rel.row_count = table->row_count;
    for (size_t i = 0; i < table->columns.size(); ++i) {
      const TableColumn& c = table->columns[i];
      rel.cols.push_back(RelColumn{alias, c.name, c.type});
      rel.columns.push_back(i < table->data.size() ? table->data[i]
                                                   : Column::Make(c.type));
    }
    return rel;
  }
  const StoredView* view = nullptr;
  StoredView catalog_view;
  if (session_ != nullptr) {
    auto it = session_->temp_views().find(name);
    if (it != session_->temp_views().end()) view = &it->second;
  }
  if (view == nullptr && catalog_->HasView(name)) {
    HQ_ASSIGN_OR_RETURN(catalog_view, catalog_->GetView(name));
    view = &catalog_view;
  }
  if (view != nullptr) {
    if (++view_depth_ > kMaxViewDepth) {
      --view_depth_;
      return ExecutionError(
          StrCat("view nesting exceeds ", kMaxViewDepth,
                 " levels (circular view definition?)"));
    }
    Result<Relation> rel = ExecuteSelect(*view->select);
    --view_depth_;
    if (!rel.ok()) return rel.status();
    for (auto& c : rel->cols) c.qualifier = alias;
    return std::move(rel).value();
  }
  return NotFound(StrCat("relation \"", name, "\" does not exist"));
}

Result<Relation> Executor::ExecJoin(const TableRef& join) {
  HQ_ASSIGN_OR_RETURN(Relation left, EvalTableRef(*join.left));
  HQ_ASSIGN_OR_RETURN(Relation right, EvalTableRef(*join.right));

  const ExecMetrics& metrics = ExecMetrics::Get();
  size_t ln = left.row_count;
  size_t rn = right.row_count;

  std::vector<RelColumn> out_cols = left.cols;
  out_cols.insert(out_cols.end(), right.cols.begin(), right.cols.end());

  // Materializes a pair list (li, ri) into a combined-schema relation.
  // ri == -1 pads an all-NULL right row (left outer join).
  auto materialize_pairs = [&](const std::vector<uint32_t>& li,
                               const std::vector<int64_t>& ri) {
    Relation lg = left.GatherRows(li.data(), li.size());
    Relation rg = right.GatherRowsPad(ri.data(), ri.size());
    Relation res;
    res.cols = out_cols;
    res.columns = std::move(lg.columns);
    res.columns.insert(res.columns.end(),
                       std::make_move_iterator(rg.columns.begin()),
                       std::make_move_iterator(rg.columns.end()));
    res.row_count = li.size();
    return res;
  };

  if (join.join_type == JoinType::kCross) {
    std::vector<uint32_t> li;
    std::vector<int64_t> ri;
    li.reserve(ln * rn);
    ri.reserve(ln * rn);
    for (size_t l = 0; l < ln; ++l) {
      for (size_t r = 0; r < rn; ++r) {
        li.push_back(static_cast<uint32_t>(l));
        ri.push_back(static_cast<int64_t>(r));
      }
    }
    return materialize_pairs(li, ri);
  }

  // Extract hashable equality keys from the ON conjuncts.
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(join.on, &conjuncts);
  struct EquiKey {
    int left_idx;
    int right_idx;
    bool null_safe;  // IS NOT DISTINCT FROM
  };
  std::vector<EquiKey> keys;
  std::vector<ExprPtr> residual;
  for (const auto& c : conjuncts) {
    bool is_eq = c->kind == ExprKind::kBinary &&
                 (c->op == "=" || c->op == "IS_NOT_DISTINCT");
    if (is_eq && c->lhs->kind == ExprKind::kColRef &&
        c->rhs->kind == ExprKind::kColRef) {
      auto l_in_left = left.Resolve(c->lhs->qualifier, c->lhs->column);
      auto r_in_right = right.Resolve(c->rhs->qualifier, c->rhs->column);
      if (l_in_left.ok() && r_in_right.ok()) {
        keys.push_back(
            {*l_in_left, *r_in_right, c->op == "IS_NOT_DISTINCT"});
        continue;
      }
      auto l_in_right = right.Resolve(c->lhs->qualifier, c->lhs->column);
      auto r_in_left = left.Resolve(c->rhs->qualifier, c->rhs->column);
      if (l_in_right.ok() && r_in_left.ok()) {
        keys.push_back(
            {*r_in_left, *l_in_right, c->op == "IS_NOT_DISTINCT"});
        continue;
      }
    }
    residual.push_back(c);
  }

  // Applies conjuncts to candidate pairs chunk by chunk, narrowing with
  // each conjunct the way row-at-a-time evaluation short-circuited: a
  // later conjunct only sees pairs where every earlier one was TRUE.
  //
  // Candidates carry the full combined schema but gather only the columns
  // the conjuncts reference; the rest stay null pointers nothing reads.
  // When a reference does not resolve, every column is gathered so the
  // evaluation reports the same error as over the full relation.
  auto filter_pairs = [&](const std::vector<ExprPtr>& conds,
                          std::vector<uint32_t>* li,
                          std::vector<int64_t>* ri) -> Status {
    if (conds.empty() || li->empty()) return Status::OK();
    Relation cand;
    cand.cols = out_cols;
    std::vector<uint8_t> mask(out_cols.size(), 0);
    bool resolved = true;
    for (const auto& c : conds) {
      resolved = resolved && MarkReferencedColumns(*c, cand, &mask);
    }
    if (!resolved) mask.assign(out_cols.size(), 1);
    Relation narrow_left, narrow_right;
    std::vector<size_t> narrow_pos;  // combined index of each narrow column
    for (size_t c = 0; c < mask.size(); ++c) {
      if (!mask[c]) continue;
      bool from_left = c < left.cols.size();
      const Relation& src = from_left ? left : right;
      size_t k = from_left ? c : c - left.cols.size();
      Relation& dst = from_left ? narrow_left : narrow_right;
      dst.cols.push_back(src.cols[k]);
      dst.columns.push_back(src.columns[k]);
      narrow_pos.push_back(c);
    }
    std::vector<uint32_t> keep_li;
    std::vector<int64_t> keep_ri;
    for (size_t base = 0; base < li->size(); base += kJoinChunkPairs) {
      size_t cn = std::min(kJoinChunkPairs, li->size() - base);
      std::vector<uint32_t> cli(li->begin() + base, li->begin() + base + cn);
      std::vector<int64_t> cri(ri->begin() + base, ri->begin() + base + cn);
      Relation lg = narrow_left.GatherRows(cli.data(), cn);
      Relation rg = narrow_right.GatherRowsPad(cri.data(), cn);
      cand.columns.assign(out_cols.size(), nullptr);
      cand.row_count = cn;
      for (size_t k = 0; k < narrow_pos.size(); ++k) {
        cand.columns[narrow_pos[k]] =
            k < lg.columns.size() ? std::move(lg.columns[k])
                                  : std::move(rg.columns[k - lg.columns.size()]);
      }
      BatchCtx bctx;
      bctx.rel = &cand;
      SelVector sel;
      HQ_RETURN_IF_ERROR(
          EvalFilter(*conds[0], bctx, nullptr, cn, &sel));
      for (size_t c = 1; c < conds.size() && !sel.empty(); ++c) {
        SelVector next;
        HQ_RETURN_IF_ERROR(
            EvalFilter(*conds[c], bctx, sel.data(), sel.size(), &next));
        sel = std::move(next);
      }
      metrics.batches->Increment(conds.size());
      metrics.rows->Increment(cn);
      for (uint32_t s : sel) {
        keep_li.push_back(cli[s]);
        keep_ri.push_back(cri[s]);
      }
    }
    *li = std::move(keep_li);
    *ri = std::move(keep_ri);
    return Status::OK();
  };

  // Interleaves an all-NULL right row for every unmatched left row at its
  // position in left order (pairs are already left-major).
  auto pad_unmatched = [&](const std::vector<uint8_t>& matched,
                           std::vector<uint32_t>* li,
                           std::vector<int64_t>* ri) {
    std::vector<uint32_t> li2;
    std::vector<int64_t> ri2;
    li2.reserve(li->size() + ln);
    ri2.reserve(ri->size() + ln);
    size_t p = 0;
    for (size_t l = 0; l < ln; ++l) {
      if (matched[l]) {
        while (p < li->size() && (*li)[p] == l) {
          li2.push_back((*li)[p]);
          ri2.push_back((*ri)[p]);
          ++p;
        }
      } else {
        li2.push_back(static_cast<uint32_t>(l));
        ri2.push_back(-1);
      }
    }
    *li = std::move(li2);
    *ri = std::move(ri2);
  };

  if (!keys.empty()) {
    // Hash join on the shared group table: build over the right rows,
    // probe with the left rows. Typed adapters apply only when both sides'
    // key columns share a storage class; otherwise the EncodeValue bytes
    // match an int key with an equal float key (1 with 1.0).
    std::vector<ColumnPtr> lkeys, rkeys;
    for (const auto& k : keys) {
      lkeys.push_back(left.columns[k.left_idx]);
      rkeys.push_back(right.columns[k.right_idx]);
    }
    KeyKind kind = KeyKindFor(rkeys);
    if (KeyKindFor(lkeys) != kind) kind = KeyKind::kGeneric;
    // Plain '=' never matches NULL: such rows stay out of build and probe.
    auto usable = [&](const std::vector<ColumnPtr>& cols, size_t i) {
      for (size_t k = 0; k < keys.size(); ++k) {
        if (!keys[k].null_safe && cols[k]->IsNull(i)) return false;
      }
      return true;
    };

    std::vector<BandBound> bounds;
    if (!residual.empty()) {
      Relation schema;
      schema.cols = out_cols;
      bounds = BandBounds(residual, left, right, schema);
    }

    // Morsel-parallel probe: each left row looks up its key's group; the
    // pairs are then emitted in left-row order, so the output permutation
    // is deterministic.
    const bool parallel = ShouldParallelize(ln);
    const Deadline dl = Deadline::Current();
    std::vector<uint32_t> li;
    std::vector<int64_t> ri;
    HQ_RETURN_IF_ERROR(WithKeyAdapter(kind, rkeys, [&](auto build_ad) {
      using Adapter = decltype(build_ad);
      Result<FlatGroups<Adapter>> table = BuildGroups(
          rn, false, dl, build_ad, [&](size_t lo, size_t hi, auto&& add) {
            for (size_t i = lo; i < hi; ++i) {
              if (usable(rkeys, i)) add(static_cast<uint32_t>(i));
            }
            return Status::OK();
          });
      if (!table.ok()) return table.status();
      const Adapter probe_ad(lkeys);
      std::vector<uint32_t> group_of(ln);
      HQ_RETURN_IF_ERROR(ForEachMorsel(
          ln, parallel, dl, "join probe", [&](size_t, size_t lo, size_t hi) {
            double t0 = parallel ? NowUs() : 0;
            const Adapter ad = probe_ad;  // per-morsel key scratch
            for (size_t i = lo; i < hi; ++i) {
              group_of[i] = usable(lkeys, i) ? table->Find(ad, i) : kNoGroup;
            }
            if (parallel) metrics.morsel_us->Record(NowUs() - t0);
            return Status::OK();
          }));
      // A band join takes from each bucket only the rows its bounds admit,
      // built per bucket on first probe; the residual then decides.
      std::vector<std::optional<BandBucket>> buckets(
          bounds.empty() ? 0 : table->members.size());
      SelVector band;
      for (size_t l = 0; l < ln; ++l) {
        if (group_of[l] == kNoGroup) continue;
        const SelVector* rows = &table->members[group_of[l]];
        if (!bounds.empty()) {
          std::optional<BandBucket>& bucket = buckets[group_of[l]];
          if (!bucket) bucket.emplace(bounds, *rows);
          bucket->Candidates(bounds, static_cast<uint32_t>(l), *rows, &band);
          rows = &band;
        }
        for (uint32_t r : *rows) {
          li.push_back(static_cast<uint32_t>(l));
          ri.push_back(static_cast<int64_t>(r));
        }
      }
      return Status::OK();
    }));
    metrics.batches->Increment(parallel ? MorselCount(ln) : 1);
    if (parallel) metrics.parallel_tasks->Increment(MorselCount(ln));
    metrics.rows->Increment(ln + rn);
    HQ_RETURN_IF_ERROR(filter_pairs(residual, &li, &ri));

    if (join.join_type == JoinType::kLeft) {
      std::vector<uint8_t> matched(ln, 0);
      for (uint32_t l : li) matched[l] = 1;
      pad_unmatched(matched, &li, &ri);
    }
    return materialize_pairs(li, ri);
  }

  // Nested-loop fallback: enumerate pairs in chunks and evaluate the full
  // ON condition as a filter over the combined chunk.
  std::vector<uint32_t> li;
  std::vector<int64_t> ri;
  std::vector<uint8_t> matched(ln, 0);
  if (rn > 0) {
    std::vector<ExprPtr> on_only{join.on};
    for (size_t base = 0; base < ln * rn; base += kJoinChunkPairs) {
      size_t cn = std::min(kJoinChunkPairs, ln * rn - base);
      std::vector<uint32_t> cli(cn);
      std::vector<int64_t> cri(cn);
      for (size_t k = 0; k < cn; ++k) {
        size_t p = base + k;
        cli[k] = static_cast<uint32_t>(p / rn);
        cri[k] = static_cast<int64_t>(p % rn);
      }
      HQ_RETURN_IF_ERROR(filter_pairs(on_only, &cli, &cri));
      for (size_t k = 0; k < cli.size(); ++k) {
        li.push_back(cli[k]);
        ri.push_back(cri[k]);
        matched[cli[k]] = 1;
      }
    }
  }
  if (join.join_type == JoinType::kLeft) {
    pad_unmatched(matched, &li, &ri);
  }
  return materialize_pairs(li, ri);
}

// ---------------------------------------------------------------------------
// Window functions
// ---------------------------------------------------------------------------

Status Executor::ComputeWindows(
    const std::vector<const Expr*>& nodes, const Relation& work,
    const std::vector<std::unordered_map<const Expr*, Datum>>& agg_per_row,
    std::unordered_map<const Expr*, ColumnPtr>* out) {
  const size_t n = work.row_count;
  const BatchCtx ctx{&work, agg_per_row.empty() ? nullptr : &agg_per_row,
                     nullptr};
  auto eval = [&](const Expr& e) { return EvalBatch(e, ctx, nullptr, n); };
  for (const Expr* node : nodes) {
    if (out->count(node) > 0) continue;
    if (n == 0) {
      out->emplace(node, std::make_shared<Column>());
      continue;
    }
    const WindowSpec& spec = node->window;
    const std::string& f = node->func_name;
    const bool ranking = f == "rank" || f == "dense_rank";
    const bool offset_fn = f == "lag" || f == "lead";
    const bool framed = !ranking && !offset_fn && f != "row_number";
    if (framed && f != "first_value" && f != "last_value" &&
        !IsAggregateFunction(f)) {
      return Unsupported(StrCat("window function ", f, " is not implemented"));
    }

    // Partitions, order keys and arguments evaluate once, column-wise.
    std::vector<ColumnPtr> part_cols;
    for (const ExprPtr& p : spec.partition_by) {
      HQ_ASSIGN_OR_RETURN(ColumnPtr c, eval(*p));
      part_cols.push_back(std::move(c));
    }
    std::vector<SelVector> partitions;
    if (part_cols.empty()) {
      partitions.emplace_back(n);
      std::iota(partitions[0].begin(), partitions[0].end(), 0u);
    } else {
      HQ_ASSIGN_OR_RETURN(partitions, GroupRows(part_cols, nullptr, n, false));
    }
    std::vector<ColumnPtr> order_cols;
    std::vector<SortKey> keys;
    for (const OrderItem& o : spec.order_by) {
      HQ_ASSIGN_OR_RETURN(ColumnPtr c, eval(*o.expr));
      keys.push_back({static_cast<int>(order_cols.size()), o.ascending,
                      o.nulls_first});
      order_cols.push_back(std::move(c));
    }
    // args[0] is the value (COUNT(*) has none); LAG/LEAD read an offset
    // and a default at the current row.
    const bool counts_rows =
        f == "count" && (node->args.empty() ||
                         node->args[0]->kind == ExprKind::kStar);
    if (IsAggregateFunction(f) && f != "count" && node->args.size() != 1) {
      return TypeError(StrCat("aggregate ", f, " takes one argument"));
    }
    if ((offset_fn || f == "first_value" || f == "last_value") &&
        node->args.empty()) {
      return TypeError(StrCat("window function ", f, " takes an argument"));
    }
    std::vector<ColumnPtr> args(node->args.size());
    for (size_t a = 0; a < args.size(); ++a) {
      if ((a == 0 && counts_rows) || (!offset_fn && a > 0)) continue;
      HQ_ASSIGN_OR_RETURN(args[a], eval(*node->args[a]));
    }
    const Column* arg = args.empty() ? nullptr : args[0].get();

    // A frame that starts at the partition's first row; sum, count, avg,
    // min and max over a typed column then accumulate in one pass, adding
    // in the order a per-frame reduction does.
    const WindowFrame& fr = spec.frame;
    const bool from_start = !fr.specified || fr.start_offset == INT64_MIN;
    const bool typed_arg = arg == nullptr ||
                           arg->storage() == Column::Storage::kInt ||
                           arg->storage() == Column::Storage::kFloat;
    const bool running = framed && from_start && !node->distinct &&
                         typed_arg &&
                         (f == "sum" || f == "count" || f == "avg" ||
                          f == "min" || f == "max");
    const bool needs_peers =
        ranking || (framed && !fr.specified && !keys.empty());

    // Results by row: ranks and row numbers as integers, LAG/LEAD as the
    // row each reads (-1: none), aggregates as values.
    std::vector<int64_t> ints(ranking || f == "row_number" ? n : 0);
    std::vector<int64_t> source(offset_fn ? n : 0, -1);
    std::vector<Datum> result(framed ? n : 0);
    std::vector<size_t> peer_end;
    std::vector<Datum> prefix;  // running: the aggregate over seq[0..p]
    for (SelVector& seq : partitions) {
      SortRows(order_cols, keys, &seq);
      const size_t m = seq.size();
      if (needs_peers) {
        // Peer groups, rank and dense_rank in one pass over the order: a
        // group [first, pos) closes where the keys change.
        peer_end.resize(m);
        int64_t dense = 0;
        size_t first = 0;
        for (size_t pos = 0; pos <= m; ++pos) {
          const bool closes =
              pos == m || (pos > 0 && !SameKeys(order_cols, keys,
                                                seq[pos - 1], seq[pos]));
          if (closes) {
            std::fill(peer_end.begin() + first, peer_end.begin() + pos,
                      pos - 1);
            first = pos;
          }
          if (pos == m) break;
          if (first == pos) ++dense;
          if (ranking) {
            ints[seq[pos]] = f == "rank" ? static_cast<int64_t>(first) + 1
                                         : dense;
          }
        }
        if (ranking) continue;
      }
      if (f == "row_number") {
        for (size_t pos = 0; pos < m; ++pos) {
          ints[seq[pos]] = static_cast<int64_t>(pos + 1);
        }
        continue;
      }
      if (offset_fn) {
        for (size_t pos = 0; pos < m; ++pos) {
          int64_t off = 1;
          if (args.size() >= 2) {
            Datum o = args[1]->At(seq[pos]);
            if (!o.is_null()) off = o.AsInt();
          }
          const int64_t target =
              static_cast<int64_t>(pos) + (f == "lag" ? -off : off);
          if (target >= 0 && target < static_cast<int64_t>(m)) {
            source[seq[pos]] = seq[target];
          }
        }
        continue;
      }
      if (running) prefix = RunningAggregate(f, arg, seq);
      const int64_t last = static_cast<int64_t>(m) - 1;
      for (size_t pos = 0; pos < m; ++pos) {
        // The frame [lo, hi]; the default one is RANGE UNBOUNDED
        // PRECEDING .. CURRENT ROW, which ends at the last peer.
        const int64_t p = static_cast<int64_t>(pos);
        int64_t lo = 0;
        int64_t hi = last;
        if (fr.specified) {
          if (fr.start_offset != INT64_MIN) {
            lo = std::max<int64_t>(0, p + fr.start_offset);
          }
          if (fr.end_offset != INT64_MAX) {
            hi = std::min<int64_t>(last, p + fr.end_offset);
          }
        } else if (!keys.empty()) {
          hi = static_cast<int64_t>(peer_end[pos]);
        }
        Datum& value = result[seq[pos]];
        if (running) {
          if (hi >= 0) {
            value = prefix[hi];
          } else if (f == "count") {
            value = Datum::BigInt(0);
          }
        } else if (f == "first_value" || f == "last_value") {
          if (lo <= hi) value = arg->At(seq[f == "first_value" ? lo : hi]);
        } else {
          SelVector frame;
          if (lo <= hi) frame.assign(seq.begin() + lo, seq.begin() + hi + 1);
          if (arg == nullptr) {
            value = Datum::BigInt(static_cast<int64_t>(frame.size()));
          } else {
            HQ_ASSIGN_OR_RETURN(value,
                                ComputeAggregateColumnar(*node, *arg, frame));
          }
        }
      }
    }
    out->emplace(node, WindowColumn(ints, source, result, arg,
                                    args.size() >= 3 ? args[2].get()
                                                     : nullptr));
  }
  return Status::OK();
}

}  // namespace sqldb
}  // namespace hyperq
