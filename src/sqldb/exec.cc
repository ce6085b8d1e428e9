#include "sqldb/exec.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/worker_pool.h"

namespace hyperq {
namespace sqldb {

namespace {

constexpr int kMaxViewDepth = 16;

/// Rows per morsel for parallel scan/filter, group building and join
/// probes. Large enough to amortize dispatch, small enough to balance.
constexpr size_t kMorselRows = 16 * 1024;

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

/// Cooperative cancellation at morsel/stage boundaries. The Deadline must
/// be captured by value on the serving thread before any fan-out: pool
/// threads do not inherit the caller's ambient (thread-local) deadline.
/// Parallel lambdas skip their work when expired; the serving thread turns
/// that into kTimeout here before any partial results are merged.
Status CancelIfExpired(const Deadline& dl, const char* stage) {
  if (dl.Expired()) return DeadlineExceeded(stage);
  return Status::OK();
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
  return true;
}

/// Whether a stage over n rows is worth fanning out to the shared pool.
bool ShouldParallelize(size_t n) {
  return n >= 2 * kMorselRows && WorkerPool::Shared().thread_count() > 0;
}

/// Evaluates a filter over rows [0, n) of ctx.rel, morsel-parallel when the
/// input is large and every column reference pre-resolves. Survivors are
/// appended to *out in ascending row order regardless of scheduling; on
/// error the lowest failing morsel wins, matching sequential evaluation.
Status FilterRows(const Expr& e, const BatchCtx& ctx, size_t n,
                  SelVector* out) {
  const ExecMetrics& m = ExecMetrics::Get();
  m.rows->Increment(n);
  if (ShouldParallelize(n) && PreResolve(e, *ctx.rel)) {
    size_t morsels = (n + kMorselRows - 1) / kMorselRows;
    std::vector<SelVector> parts(morsels);
    std::vector<Status> stats(morsels, Status::OK());
    const Deadline dl = Deadline::Current();
    WorkerPool::Shared().ParallelFor(morsels, [&](size_t mi) {
      if (dl.Expired()) {
        stats[mi] = DeadlineExceeded("filter morsel");
        return;
      }
      double t0 = NowUs();
      size_t lo = mi * kMorselRows;
      size_t hi = std::min(n, lo + kMorselRows);
      SelVector morsel(hi - lo);
      for (size_t k = 0; k < morsel.size(); ++k) {
        morsel[k] = static_cast<uint32_t>(lo + k);
      }
      stats[mi] =
          EvalFilter(e, ctx, morsel.data(), morsel.size(), &parts[mi]);
      m.morsel_us->Record(NowUs() - t0);
    });
    m.batches->Increment(morsels);
    m.parallel_tasks->Increment(morsels);
    for (size_t mi = 0; mi < morsels; ++mi) {
      HQ_RETURN_IF_ERROR(stats[mi]);
    }
    size_t total = 0;
    for (const auto& p : parts) total += p.size();
    out->reserve(out->size() + total);
    for (const auto& p : parts) {
      out->insert(out->end(), p.begin(), p.end());
    }
    return Status::OK();
  }
  m.batches->Increment(1);
  return EvalFilter(e, ctx, nullptr, n, out);
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
      if (op == "AND" || op == "OR" || op == "=" || op == "<>" ||
          op == "<" || op == ">" || op == "<=" || op == ">=" ||
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
      core.output = std::move(for_order.output);
    }
  } else if (!stmt.order_by.empty()) {
    HQ_RETURN_IF_ERROR(CancelIfExpired(deadline, "order by"));
    HQ_RETURN_IF_ERROR(ApplyOrderBy(stmt, &core));
  }
  HQ_RETURN_IF_ERROR(ApplyLimit(stmt, &core.output));
  return std::move(core.output);
}

Result<Executor::CoreResult> Executor::ExecCore(const SelectStmt& stmt) {
  const ExecMetrics& metrics = ExecMetrics::Get();
  const Deadline deadline = Deadline::Current();

  // ---- FROM ----
  Relation input;
  if (stmt.from) {
    HQ_ASSIGN_OR_RETURN(input, EvalTableRef(*stmt.from));
  }
  HQ_RETURN_IF_ERROR(CancelIfExpired(deadline, "scan/join"));
  if (!stmt.from) {
    input.AppendRow({});  // SELECT without FROM: one empty row
  }

  // ---- WHERE ----
  if (stmt.where) {
    BatchCtx wctx;
    wctx.rel = &input;
    SelVector sel;
    HQ_RETURN_IF_ERROR(FilterRows(*stmt.where, wctx, input.row_count, &sel));
    input = input.GatherRows(sel.data(), sel.size());
  }

  CoreResult core;

  // ---- GROUP BY / aggregates ----
  std::vector<const Expr*> agg_nodes;
  for (const auto& item : stmt.items) CollectAggregates(item.expr, &agg_nodes);
  CollectAggregates(stmt.having, &agg_nodes);
  bool grouped = !stmt.group_by.empty() || !agg_nodes.empty();

  if (grouped) {
    size_t n = input.row_count;

    // Group keys evaluate column-wise; rows are then bucketed by the key
    // bytes, encoded into one scratch buffer reused across rows.
    std::vector<ColumnPtr> key_cols;
    key_cols.reserve(stmt.group_by.size());
    {
      BatchCtx gctx;
      gctx.rel = &input;
      for (const auto& g : stmt.group_by) {
        HQ_ASSIGN_OR_RETURN(ColumnPtr c, EvalBatch(*g, gctx, nullptr, n));
        key_cols.push_back(std::move(c));
      }
    }

    // Bucket rows by group key (order of first occurrence). Large inputs
    // build morsel-local groups in parallel, then merge in morsel order —
    // morsels cover ascending row ranges, so both the group order and the
    // member order within each group match the sequential scan exactly.
    std::vector<SelVector> members;
    if (!key_cols.empty() && ShouldParallelize(n)) {
      size_t morsels = (n + kMorselRows - 1) / kMorselRows;
      struct LocalGroups {
        std::vector<std::string> keys;  // first-occurrence order
        std::vector<SelVector> groups;
        std::unordered_map<std::string, size_t> map;
      };
      std::vector<LocalGroups> locals(morsels);
      const Deadline dl = Deadline::Current();
      WorkerPool::Shared().ParallelFor(morsels, [&](size_t mi) {
        if (dl.Expired()) return;  // serving thread reports the timeout
        double t0 = NowUs();
        LocalGroups& lg = locals[mi];
        size_t lo = mi * kMorselRows;
        size_t hi = std::min(n, lo + kMorselRows);
        std::string key;
        for (size_t i = lo; i < hi; ++i) {
          key.clear();
          for (const auto& kc : key_cols) kc->EncodeValue(i, &key);
          // find-then-insert: emplace would allocate a map node per row
          // even on hits, and that per-row malloc dominates the loop.
          auto it = lg.map.find(key);
          if (it == lg.map.end()) {
            it = lg.map.emplace(key, lg.keys.size()).first;
            lg.keys.push_back(key);
            lg.groups.push_back({});
          }
          lg.groups[it->second].push_back(static_cast<uint32_t>(i));
        }
        metrics.morsel_us->Record(NowUs() - t0);
      });
      metrics.batches->Increment(morsels);
      metrics.parallel_tasks->Increment(morsels);
      metrics.rows->Increment(n);
      HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "group build"));
      std::unordered_map<std::string, size_t> group_of;
      for (auto& lg : locals) {
        for (size_t g = 0; g < lg.keys.size(); ++g) {
          auto [it, inserted] =
              group_of.emplace(std::move(lg.keys[g]), members.size());
          if (inserted) {
            members.push_back(std::move(lg.groups[g]));
          } else {
            SelVector& dst = members[it->second];
            dst.insert(dst.end(), lg.groups[g].begin(), lg.groups[g].end());
          }
        }
      }
    } else if (!key_cols.empty()) {
      std::unordered_map<std::string, size_t> group_of;
      std::string key;  // reused across rows
      for (size_t i = 0; i < n; ++i) {
        key.clear();
        for (const auto& kc : key_cols) kc->EncodeValue(i, &key);
        auto it = group_of.find(key);
        if (it == group_of.end()) {
          it = group_of.emplace(key, members.size()).first;
          members.push_back({});
        }
        members[it->second].push_back(static_cast<uint32_t>(i));
      }
      metrics.batches->Increment(1);
      metrics.rows->Increment(n);
    } else if (n > 0) {
      // No GROUP BY: every row lands in one group.
      members.push_back({});
      members[0].resize(n);
      std::iota(members[0].begin(), members[0].end(), 0);
    }
    // An aggregate query with no GROUP BY always yields one group, even
    // over zero rows.
    if (stmt.group_by.empty() && members.empty()) members.push_back({});

    size_t ngroups = members.size();

    // Representative rows: first member (empty groups use all-null).
    {
      std::vector<int64_t> rep(ngroups);
      for (size_t g = 0; g < ngroups; ++g) {
        rep[g] = members[g].empty()
                     ? -1
                     : static_cast<int64_t>(members[g].front());
      }
      core.work = input.GatherRowsPad(rep.data(), ngroups);
    }

    // Aggregates: evaluate each argument once over the full input as a
    // column, then reduce groups in parallel. Member order within a group
    // is ascending row order, so float accumulation is bit-identical to
    // the row-at-a-time path.
    core.agg_per_row.resize(ngroups);
    for (const Expr* agg : agg_nodes) {
      if (ngroups > 0 && core.agg_per_row[0].count(agg) > 0) {
        continue;  // duplicate node, already computed
      }
      const std::string& f = agg->func_name;
      bool star = !agg->args.empty() &&
                  agg->args[0]->kind == ExprKind::kStar;
      if (f == "count" && (agg->args.empty() || star)) {
        for (size_t g = 0; g < ngroups; ++g) {
          core.agg_per_row[g].emplace(
              agg, Datum::BigInt(static_cast<int64_t>(members[g].size())));
        }
        continue;
      }
      if (agg->args.size() != 1 && f != "count") {
        return TypeError(StrCat("aggregate ", f, " takes one argument"));
      }
      BatchCtx actx;
      actx.rel = &input;
      HQ_ASSIGN_OR_RETURN(ColumnPtr arg_col,
                          EvalBatch(*agg->args[0], actx, nullptr, n));
      std::vector<Datum> results(ngroups);
      std::vector<Status> stats(ngroups, Status::OK());
      const Deadline dl = Deadline::Current();
      auto reduce = [&](size_t g) {
        if (dl.Expired()) {
          stats[g] = DeadlineExceeded("aggregate morsel");
          return;
        }
        Result<Datum> r = ComputeAggregateColumnar(*agg, *arg_col,
                                                   members[g]);
        if (r.ok()) {
          results[g] = std::move(*r);
        } else {
          stats[g] = r.status();
        }
      };
      if (ngroups > 1 && ShouldParallelize(n)) {
        WorkerPool::Shared().ParallelFor(ngroups, reduce);
        metrics.parallel_tasks->Increment(ngroups);
      } else {
        for (size_t g = 0; g < ngroups; ++g) reduce(g);
      }
      metrics.batches->Increment(1);
      for (size_t g = 0; g < ngroups; ++g) {
        HQ_RETURN_IF_ERROR(stats[g]);
      }
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
    // Refine the inferred type from the first row's actual value.
    if (out_rows > 0 && !col->IsNull(0)) {
      Datum v0 = col->At(0);
      if (core.output.cols[c].type != v0.type()) {
        core.output.cols[c].type = v0.type();
      }
    }
    core.output.columns.push_back(std::move(col));
  }
  core.output.row_count = out_rows;
  metrics.batches->Increment(items.size());
  metrics.rows->Increment(out_rows);

  // ---- DISTINCT ----
  if (stmt.distinct) {
    std::unordered_map<std::string, bool> seen;
    seen.reserve(out_rows * 2);
    SelVector keep;
    std::string key;  // reused across rows
    for (size_t i = 0; i < out_rows; ++i) {
      key.clear();
      for (const auto& col : core.output.columns) col->EncodeValue(i, &key);
      if (seen.find(key) == seen.end()) {
        seen.emplace(key, true);
        keep.push_back(static_cast<uint32_t>(i));
      }
    }
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

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < stmt.order_by.size(); ++k) {
      const Column& col = *key_cols[k];
      const OrderItem& item = stmt.order_by[k];
      bool xn = col.IsNull(a), yn = col.IsNull(b);
      if (xn || yn) {
        if (xn == yn) continue;
        return xn == item.nulls_first;
      }
      int cmp = CompareCells(col, a, b);
      if (cmp != 0) return item.ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });

  SelVector sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(order[i]);
  core->output = core->output.GatherRows(sel.data(), sel.size());
  return Status::OK();
}

Status Executor::ApplyLimit(const SelectStmt& stmt, Relation* rel) {
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
  int64_t limit = -1, offset = 0;
  HQ_RETURN_IF_ERROR(eval_const(stmt.limit, &limit));
  HQ_RETURN_IF_ERROR(eval_const(stmt.offset, &offset));
  size_t start = 0;
  size_t end = rel->row_count;
  if (stmt.offset && offset > 0) {
    start = std::min<size_t>(static_cast<size_t>(offset), end);
  }
  if (stmt.limit && limit >= 0 &&
      end - start > static_cast<size_t>(limit)) {
    end = start + static_cast<size_t>(limit);
  }
  if (start == 0 && end == rel->row_count) return Status::OK();
  SelVector sel(end - start);
  for (size_t i = 0; i < sel.size(); ++i) {
    sel[i] = static_cast<uint32_t>(start + i);
  }
  *rel = rel->GatherRows(sel.data(), sel.size());
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
    // Hash join. Build side: encode right-row keys column-wise into one
    // scratch buffer per row.
    std::unordered_map<std::string, std::vector<uint32_t>> buckets;
    buckets.reserve(rn * 2);
    {
      std::string key;
      for (size_t i = 0; i < rn; ++i) {
        key.clear();
        bool usable = true;
        for (const auto& k : keys) {
          const Column& c = *right.columns[k.right_idx];
          if (c.IsNull(i) && !k.null_safe) {
            usable = false;  // plain '=' never matches NULL
            break;
          }
          c.EncodeValue(i, &key);
        }
        if (usable) buckets[key].push_back(static_cast<uint32_t>(i));
      }
    }

    // Probe side: morsel-parallel over the left rows; each morsel emits
    // pairs in left-row order and morsels concatenate in row order, so the
    // output permutation is deterministic.
    size_t morsels =
        ShouldParallelize(ln) ? (ln + kMorselRows - 1) / kMorselRows : 1;
    struct ProbeOut {
      std::vector<uint32_t> li;
      std::vector<int64_t> ri;
    };
    std::vector<ProbeOut> parts(morsels);
    auto probe_range = [&](size_t mi, size_t lo, size_t hi) {
      ProbeOut& po = parts[mi];
      std::string key;
      for (size_t i = lo; i < hi; ++i) {
        key.clear();
        bool usable = true;
        for (const auto& k : keys) {
          const Column& c = *left.columns[k.left_idx];
          if (c.IsNull(i) && !k.null_safe) {
            usable = false;
            break;
          }
          c.EncodeValue(i, &key);
        }
        if (!usable) continue;
        auto it = buckets.find(key);
        if (it == buckets.end()) continue;
        for (uint32_t r : it->second) {
          po.li.push_back(static_cast<uint32_t>(i));
          po.ri.push_back(static_cast<int64_t>(r));
        }
      }
    };
    const Deadline dl = Deadline::Current();
    if (morsels > 1) {
      WorkerPool::Shared().ParallelFor(morsels, [&](size_t mi) {
        if (dl.Expired()) return;  // serving thread reports the timeout
        double t0 = NowUs();
        probe_range(mi, mi * kMorselRows,
                    std::min(ln, (mi + 1) * kMorselRows));
        metrics.morsel_us->Record(NowUs() - t0);
      });
      metrics.parallel_tasks->Increment(morsels);
    } else {
      probe_range(0, 0, ln);
    }
    metrics.batches->Increment(morsels);
    metrics.rows->Increment(ln + rn);
    HQ_RETURN_IF_ERROR(CancelIfExpired(dl, "join probe"));

    std::vector<uint32_t> li;
    std::vector<int64_t> ri;
    {
      size_t total = 0;
      for (const auto& po : parts) total += po.li.size();
      li.reserve(total);
      ri.reserve(total);
      for (const auto& po : parts) {
        li.insert(li.end(), po.li.begin(), po.li.end());
        ri.insert(ri.end(), po.ri.begin(), po.ri.end());
      }
    }
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
    std::unordered_map<const Expr*, std::vector<Datum>>* out) {
  size_t n = work.row_count;
  for (const Expr* node : nodes) {
    if (out->count(node) > 0) continue;
    const WindowSpec& spec = node->window;

    auto ctx_for = [&](size_t i) {
      return EvalCtx{&work, i,
                     agg_per_row.empty() ? nullptr : &agg_per_row[i],
                     nullptr};
    };

    // Partition rows.
    std::unordered_map<std::string, size_t> part_of;
    std::vector<std::vector<size_t>> partitions;
    for (size_t i = 0; i < n; ++i) {
      std::string key;
      for (const auto& p : spec.partition_by) {
        HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*p, ctx_for(i)));
        EncodeDatum(v, &key);
      }
      auto [it, inserted] = part_of.emplace(key, partitions.size());
      if (inserted) partitions.push_back({});
      partitions[it->second].push_back(i);
    }

    std::vector<Datum> result(n);
    for (auto& part : partitions) {
      // Order within the partition.
      std::vector<std::vector<Datum>> keys(part.size());
      for (size_t p = 0; p < part.size(); ++p) {
        for (const auto& o : spec.order_by) {
          HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*o.expr, ctx_for(part[p])));
          keys[p].push_back(std::move(v));
        }
      }
      std::vector<size_t> order(part.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < spec.order_by.size(); ++k) {
          const Datum& x = keys[a][k];
          const Datum& y = keys[b][k];
          const OrderItem& item = spec.order_by[k];
          if (x.is_null() || y.is_null()) {
            if (x.is_null() == y.is_null()) continue;
            return x.is_null() == item.nulls_first;
          }
          int cmp = Datum::Compare(x, y);
          if (cmp != 0) return item.ascending ? cmp < 0 : cmp > 0;
        }
        return false;
      });
      std::vector<size_t> seq;  // row indices in window order
      seq.reserve(part.size());
      for (size_t o : order) seq.push_back(part[o]);

      // Peer groups (rows equal on all order keys).
      std::vector<size_t> peer_end(seq.size());
      {
        size_t i = 0;
        while (i < seq.size()) {
          size_t j = i;
          while (j + 1 < seq.size()) {
            bool equal = true;
            for (size_t k = 0; k < spec.order_by.size(); ++k) {
              const Datum& x = keys[order[i]][k];
              const Datum& y = keys[order[j + 1]][k];
              if (!Datum::DistinctEquals(x, y)) {
                equal = false;
                break;
              }
            }
            if (!equal) break;
            ++j;
          }
          for (size_t p = i; p <= j; ++p) peer_end[p] = j;
          i = j + 1;
        }
      }

      const std::string& f = node->func_name;
      auto arg_at = [&](size_t pos, size_t arg_idx) -> Result<Datum> {
        return EvalExpr(*node->args[arg_idx], ctx_for(seq[pos]));
      };

      for (size_t pos = 0; pos < seq.size(); ++pos) {
        Datum value;
        if (f == "row_number") {
          value = Datum::BigInt(static_cast<int64_t>(pos + 1));
        } else if (f == "rank" || f == "dense_rank") {
          // rank = index of first peer + 1.
          size_t first_peer = pos;
          while (first_peer > 0 && peer_end[first_peer - 1] >= pos) {
            --first_peer;
          }
          int64_t rank = static_cast<int64_t>(first_peer) + 1;
          // dense rank: count of peer groups before this one.
          int64_t dense = 1;
          size_t p = 0;
          while (p < first_peer) {
            ++dense;
            p = peer_end[p] + 1;
          }
          value = Datum::BigInt(f == "rank" ? rank : dense);
        } else if (f == "lag" || f == "lead") {
          int64_t off = 1;
          if (node->args.size() >= 2) {
            HQ_ASSIGN_OR_RETURN(Datum o, arg_at(pos, 1));
            if (!o.is_null()) off = o.AsInt();
          }
          int64_t target = static_cast<int64_t>(pos) +
                           (f == "lag" ? -off : off);
          if (target < 0 || target >= static_cast<int64_t>(seq.size())) {
            if (node->args.size() >= 3) {
              HQ_ASSIGN_OR_RETURN(value, arg_at(pos, 2));
            } else {
              value = Datum::Null();
            }
          } else {
            HQ_ASSIGN_OR_RETURN(value, arg_at(target, 0));
          }
        } else {
          // Frame-based functions. Default frame: RANGE UNBOUNDED
          // PRECEDING .. CURRENT ROW (ends at the last peer).
          int64_t lo = 0;
          int64_t hi;
          if (node->window.frame.specified) {
            const WindowFrame& fr = node->window.frame;
            lo = fr.start_offset == INT64_MIN
                     ? 0
                     : std::max<int64_t>(0, static_cast<int64_t>(pos) +
                                                fr.start_offset);
            hi = fr.end_offset == INT64_MAX
                     ? static_cast<int64_t>(seq.size()) - 1
                     : std::min<int64_t>(
                           static_cast<int64_t>(seq.size()) - 1,
                           static_cast<int64_t>(pos) + fr.end_offset);
          } else {
            hi = spec.order_by.empty()
                     ? static_cast<int64_t>(seq.size()) - 1
                     : static_cast<int64_t>(peer_end[pos]);
          }
          if (f == "first_value" || f == "last_value") {
            if (lo > hi) {
              value = Datum::Null();
            } else {
              HQ_ASSIGN_OR_RETURN(
                  value, arg_at(f == "first_value" ? lo : hi, 0));
            }
          } else if (IsAggregateFunction(f)) {
            std::vector<size_t> frame_rows;
            for (int64_t p = lo; p <= hi; ++p) frame_rows.push_back(seq[p]);
            HQ_ASSIGN_OR_RETURN(value,
                                ComputeAggregate(*node, work, frame_rows));
          } else {
            return Unsupported(StrCat("window function ", f,
                                      " is not implemented"));
          }
        }
        result[seq[pos]] = std::move(value);
      }
    }
    out->emplace(node, std::move(result));
  }
  return Status::OK();
}

}  // namespace sqldb
}  // namespace hyperq
