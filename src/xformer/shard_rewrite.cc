#include "xformer/shard_rewrite.h"

#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace hyperq {

using xtra::ColId;
using xtra::kNoCol;
using xtra::MakeColRef;
using xtra::MakeConst;
using xtra::MakeFunc;
using xtra::MakeGet;
using xtra::MakeGroupAgg;
using xtra::MakeLimit;
using xtra::MakeProject;
using xtra::MakeSort;
using xtra::NamedScalar;
using xtra::ScalarExpr;
using xtra::ScalarKind;
using xtra::ScalarPtr;
using xtra::XtraColumn;
using xtra::XtraKind;
using xtra::XtraOp;
using xtra::XtraPtr;
using xtra::XtraSortKey;

namespace {

/// Column-name prefix reserved for the coordinator's partial-aggregate
/// columns; user queries never produce it (hq_* helpers use other names).
constexpr char kPartialPrefix[] = "hq_sh";

bool ScalarContains(const ScalarPtr& e, ScalarKind kind) {
  if (!e) return false;
  if (e->kind == kind) return true;
  for (const auto& a : e->args) {
    if (ScalarContains(a, kind)) return true;
  }
  for (const auto& p : e->partition_by) {
    if (ScalarContains(p, kind)) return true;
  }
  for (const auto& [o, asc] : e->order_by) {
    if (ScalarContains(o, kind)) return true;
  }
  return false;
}

/// True when a scalar is safe to evaluate per shard: no window functions
/// (they see only the shard's rows) and no nested aggregates.
bool ShardSafeScalar(const ScalarPtr& e) {
  return !ScalarContains(e, ScalarKind::kWindow) &&
         !ScalarContains(e, ScalarKind::kAgg);
}

/// Walks a Filter/Project chain down to its Get leaf. Returns null when
/// the subtree contains any other operator, a DISTINCT projection, or a
/// scalar that is not shard-safe.
XtraPtr ChainBase(const XtraPtr& op) {
  XtraPtr cur = op;
  while (cur) {
    switch (cur->kind) {
      case XtraKind::kGet:
        return cur;
      case XtraKind::kFilter:
        if (!ShardSafeScalar(cur->predicate)) return nullptr;
        cur = cur->children[0];
        break;
      case XtraKind::kProject: {
        if (cur->distinct || cur->children.empty()) return nullptr;
        for (const auto& p : cur->projections) {
          if (!ShardSafeScalar(p.expr)) return nullptr;
        }
        cur = cur->children[0];
        break;
      }
      default:
        return nullptr;
    }
  }
  return nullptr;
}

/// Resolves a column id at `op`'s output down a Filter/Project chain to
/// the base-table column it is a pure alias of; empty when computed.
std::string ResolveBaseColumn(const XtraPtr& op, ColId id) {
  XtraPtr cur = op;
  ColId cid = id;
  while (cur) {
    switch (cur->kind) {
      case XtraKind::kGet: {
        const XtraColumn* c = cur->FindOutput(cid);
        return c != nullptr ? c->name : std::string();
      }
      case XtraKind::kFilter:
        cur = cur->children[0];
        break;
      case XtraKind::kProject: {
        const NamedScalar* found = nullptr;
        for (const auto& p : cur->projections) {
          if (p.col.id == cid) {
            found = &p;
            break;
          }
        }
        if (found == nullptr || found->expr == nullptr ||
            found->expr->kind != ScalarKind::kColRef) {
          return std::string();
        }
        cid = found->expr->col;
        cur = cur->children[0];
        break;
      }
      default:
        return std::string();
    }
  }
  return std::string();
}

/// Output names double as the merge query's column references into the
/// partials table, so they must be unique and must not collide with the
/// coordinator's reserved partial-column names.
bool UsableOutputNames(const std::vector<XtraColumn>& cols) {
  std::set<std::string> seen;
  for (const auto& c : cols) {
    if (c.name.empty()) return false;
    if (c.name.compare(0, sizeof(kPartialPrefix) - 1, kPartialPrefix) == 0) {
      return false;
    }
    if (!seen.insert(c.name).second) return false;
  }
  return true;
}

ColId MaxColId(const XtraPtr& op) {
  if (!op) return kNoCol;
  ColId m = kNoCol;
  for (const auto& c : op->output) m = std::max(m, c.id);
  for (const auto& k : op->group_keys) m = std::max(m, k.col.id);
  for (const auto& p : op->projections) m = std::max(m, p.col.id);
  for (const auto& c : op->children) m = std::max(m, MaxColId(c));
  return m;
}

/// A scan over the concatenated partial results, exposing the given
/// columns under fresh ids 0..n-1 plus the original-id remapping.
struct PartialsScan {
  XtraPtr get;
  std::map<ColId, ColId> remap;  ///< original output id -> partials id
};

PartialsScan MakePartialsScan(const std::vector<XtraColumn>& cols) {
  PartialsScan out;
  std::vector<XtraColumn> scan_cols;
  scan_cols.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    XtraColumn c = cols[i];
    c.id = static_cast<ColId>(i);
    out.remap[cols[i].id] = c.id;
    scan_cols.push_back(std::move(c));
  }
  out.get = MakeGet(kShardPartialsTable, std::move(scan_cols), kNoCol);
  return out;
}

ScalarPtr ColRefTo(const XtraColumn& c) {
  return MakeColRef(c.id, c.name, c.type, c.nullable);
}

void CollectConjuncts(const ScalarPtr& e,
                      std::vector<const ScalarExpr*>* out) {
  if (!e) return;
  if (e->kind == ScalarKind::kFunc && e->func == "and") {
    for (const auto& a : e->args) CollectConjuncts(a, out);
    return;
  }
  out->push_back(e.get());
}

/// Partition routing: scans the Filter/Project chain for a top-level
/// conjunct `partition_column = <sym constant>`. Hash partitioning puts
/// every row of one partition value on one shard, so a query pinned to a
/// single value only needs that shard; the others could contribute only
/// empty partials (kOrdered/kAligned) or neutral ones (two-phase partial
/// rows with zero count and NULL sum/min/max, which the merge aggregates
/// ignore). Lifted cache parameters are fine as route keys: only the
/// exact-text cache tier replays shard plans, so a plan carrying a route
/// is never reused for a different literal. The null symbol is excluded —
/// its rows hash by the NULL encoding, not by "".
std::optional<std::string> FindRouteKey(const XtraPtr& chain_top,
                                        const std::string& partition_column) {
  XtraPtr cur = chain_top;
  while (cur != nullptr && cur->kind != XtraKind::kGet) {
    if (cur->children.empty()) return std::nullopt;
    if (cur->kind == XtraKind::kFilter) {
      std::vector<const ScalarExpr*> conjuncts;
      CollectConjuncts(cur->predicate, &conjuncts);
      for (const ScalarExpr* c : conjuncts) {
        // Both the plain and the null-safe equality pin the column: with a
        // non-null constant (enforced below) they qualify exactly the rows
        // holding that value.
        if (c->kind != ScalarKind::kFunc ||
            (c->func != "eq" && c->func != "eq_ind") || c->args.size() != 2) {
          continue;
        }
        for (int side = 0; side < 2; ++side) {
          const ScalarPtr& col = c->args[side];
          const ScalarPtr& val = c->args[1 - side];
          if (!col || col->kind != ScalarKind::kColRef) continue;
          if (!val || val->kind != ScalarKind::kConst) continue;
          if (val->value.type() != QType::kSymbol ||
              val->value.IsNullAtom()) {
            continue;
          }
          if (ResolveBaseColumn(cur->children[0], col->col) !=
              partition_column) {
            continue;
          }
          return val->value.AsSym();
        }
      }
    }
    cur = cur->children[0];
  }
  return std::nullopt;
}

/// kOrdered: [Limit]? [Sort]? (Filter|Project)* Get. Hash partitioning
/// keeps the global implicit order column on every row, so re-sorting the
/// concatenated partials by (explicit sort keys, ordcol) reproduces the
/// single-backend row order exactly — the backend's ORDER BY is a stable
/// sort over ordcol-ascending input, and ordcol is globally unique.
ShardRewrite TryOrdered(const XtraPtr& root, const ShardInfoFn& info) {
  ShardRewrite out;
  XtraPtr limit;
  XtraPtr sort;
  XtraPtr cur = root;
  if (cur->kind == XtraKind::kLimit) {
    limit = cur;
    cur = cur->children[0];
  }
  if (cur->kind == XtraKind::kSort) {
    sort = cur;
    cur = cur->children[0];
  }
  XtraPtr base = ChainBase(cur);
  if (!base) return out;
  std::optional<ShardTableInfo> pinfo = info(base->table);
  if (!pinfo) return out;

  // The global order must be reconstructible: the implicit order column
  // has to survive into the result.
  if (root->ord_col == kNoCol || root->FindOutput(root->ord_col) == nullptr) {
    return out;
  }
  // Without an explicit sort or limit, the single-backend SQL only has a
  // deterministic order when the serializer emits the final ORDER BY
  // ordcol wrap; a result whose order the backend never defines cannot be
  // matched byte-for-byte from concatenated shards.
  if (!sort && !limit && !root->order_required) return out;
  if (!UsableOutputNames(root->output)) return out;
  if (sort) {
    for (const auto& k : sort->sort_keys) {
      if (!k.expr || k.expr->kind != ScalarKind::kColRef ||
          root->FindOutput(k.expr->col) == nullptr) {
        return out;
      }
    }
  }
  if (limit && limit->limit >= 0 && limit->offset > 0 &&
      limit->limit > std::numeric_limits<int64_t>::max() - limit->offset) {
    return out;
  }

  PartialsScan ps = MakePartialsScan(root->output);
  std::vector<XtraSortKey> merge_keys;
  if (sort) {
    for (const auto& k : sort->sort_keys) {
      const XtraColumn& c = ps.get->output[ps.remap[k.expr->col]];
      merge_keys.push_back({ColRefTo(c), k.ascending});
    }
  }
  const XtraColumn& oc = ps.get->output[ps.remap[root->ord_col]];
  merge_keys.push_back({ColRefTo(oc), /*ascending=*/true});
  XtraPtr merge = MakeSort(ps.get, std::move(merge_keys));
  if (limit) {
    // Each shard only needs its first limit+offset rows; the merge
    // re-applies the exact limit/offset after the global sort.
    merge = MakeLimit(merge, limit->limit, limit->offset);
    XtraPtr partial = xtra::CloneTree(root);
    partial->limit =
        limit->limit < 0 ? -1 : limit->limit + limit->offset;
    partial->offset = 0;
    out.partial = std::move(partial);
  }
  out.mode = ShardMode::kOrdered;
  out.table = base->table;
  out.merge = std::move(merge);
  if (std::optional<std::string> rk =
          FindRouteKey(cur, pinfo->partition_column)) {
    out.routed = true;
    out.route_key = std::move(*rk);
  }
  return out;
}

/// Common precondition of both aggregate modes: Sort(GroupAgg(chain)) or
/// a bare scalar GroupAgg(chain), with sort keys that are plain column
/// refs covering every group key (so the key tuples totally order the
/// groups and the merge sort is deterministic without a tiebreak).
struct AggShape {
  XtraPtr sort;       ///< null for bare scalar aggregation
  XtraPtr group_agg;
  XtraPtr base;       ///< the partitioned Get
  std::optional<std::string> route_key;  ///< pinned partition value, if any
};

bool MatchAggShape(const XtraPtr& root, const ShardInfoFn& info,
                   AggShape* out) {
  XtraPtr cur = root;
  if (cur->kind == XtraKind::kSort) {
    out->sort = cur;
    cur = cur->children[0];
  }
  if (cur->kind != XtraKind::kGroupAgg) return false;
  out->group_agg = cur;
  XtraPtr base = ChainBase(cur->children[0]);
  if (!base) return false;
  std::optional<ShardTableInfo> pinfo = info(base->table);
  if (!pinfo) return false;
  out->base = base;
  out->route_key =
      FindRouteKey(cur->children[0], pinfo->partition_column);
  if (!UsableOutputNames(out->group_agg->output)) return false;
  for (const auto& k : out->group_agg->group_keys) {
    if (!ShardSafeScalar(k.expr)) return false;
  }

  if (out->group_agg->group_keys.empty()) {
    // Scalar aggregation: exactly one output row, nothing to order.
    return !out->sort;
  }
  if (!out->sort) return false;
  std::set<ColId> sorted_ids;
  for (const auto& k : out->sort->sort_keys) {
    if (!k.expr || k.expr->kind != ScalarKind::kColRef ||
        out->group_agg->FindOutput(k.expr->col) == nullptr) {
      return false;
    }
    sorted_ids.insert(k.expr->col);
  }
  for (const auto& k : out->group_agg->group_keys) {
    if (sorted_ids.count(k.col.id) == 0) return false;
  }
  return true;
}

/// kAligned: some group key is a pure alias of the partition column, so
/// every group lives wholly on one shard with its members in original row
/// order — any aggregate (median, stddev, first/last included) is exact
/// per shard, and the merge only re-sorts the group rows.
ShardRewrite TryAligned(const AggShape& shape, const ShardInfoFn& info) {
  ShardRewrite out;
  if (!shape.sort) return out;
  std::optional<ShardTableInfo> pinfo = info(shape.base->table);
  bool aligned = false;
  for (const auto& k : shape.group_agg->group_keys) {
    if (k.expr && k.expr->kind == ScalarKind::kColRef &&
        ResolveBaseColumn(shape.group_agg->children[0], k.expr->col) ==
            pinfo->partition_column) {
      aligned = true;
      break;
    }
  }
  if (!aligned) return out;

  PartialsScan ps = MakePartialsScan(shape.sort->output);
  std::vector<XtraSortKey> merge_keys;
  for (const auto& k : shape.sort->sort_keys) {
    const XtraColumn& c = ps.get->output[ps.remap[k.expr->col]];
    merge_keys.push_back({ColRefTo(c), k.ascending});
  }
  out.mode = ShardMode::kAligned;
  out.table = shape.base->table;
  out.merge = MakeSort(ps.get, std::move(merge_keys));
  if (shape.route_key) {
    out.routed = true;
    out.route_key = *shape.route_key;
  }
  return out;
}

/// kTwoPhase: every aggregate decomposes into a per-shard partial and a
/// merge aggregate (ISSUE/qserv AggregateMgr pattern):
///   count/count(*) -> sum of partial counts
///   min/max        -> min/max of partial min/max
///   sum            -> sum of partial sums      (integral args only)
///   avg            -> sum(partials)/count, NULL when the count is zero
/// Float sums are excluded: float addition is not associative, so a
/// re-associated sum would not be bit-identical to the row-order sum.
ShardRewrite TryTwoPhase(const AggShape& shape) {
  ShardRewrite out;
  const XtraPtr& g = shape.group_agg;
  for (const auto& a : g->projections) {
    const ScalarPtr& e = a.expr;
    if (!e || e->kind != ScalarKind::kAgg || e->distinct) return out;
    for (const auto& arg : e->args) {
      if (!ShardSafeScalar(arg)) return out;
    }
    if (e->func == "count" || e->func == "count_star" || e->func == "min" ||
        e->func == "max") {
      continue;
    }
    if ((e->func == "sum" || e->func == "avg") && !e->args.empty() &&
        IsIntegralBacked(e->args[0]->type)) {
      continue;
    }
    return out;
  }

  ColId next_id = MaxColId(g) + 1;
  auto fresh = [&next_id]() { return next_id++; };

  // Per-shard partial aggregation: same keys, partial aggregates. No sort
  // (the merge re-groups and re-sorts) and no final ORDER BY wrap.
  std::vector<NamedScalar> partial_aggs;
  struct AggPlan {
    std::string func;          ///< original aggregate
    std::string partial_name;  ///< partial column (sum/min/max/count)
    std::string count_name;    ///< avg only: partial count column
    const NamedScalar* original;
  };
  std::vector<AggPlan> plans;
  int seq = 0;
  for (const auto& a : g->projections) {
    const ScalarPtr& e = a.expr;
    AggPlan plan;
    plan.func = e->func;
    plan.original = &a;
    if (e->func == "avg") {
      plan.partial_name = kPartialPrefix + std::string("p_") +
                          std::to_string(seq) + "_s";
      plan.count_name = kPartialPrefix + std::string("p_") +
                        std::to_string(seq) + "_c";
      partial_aggs.push_back(
          {XtraColumn{fresh(), plan.partial_name, QType::kLong, true},
           xtra::MakeAgg("sum", e->args, QType::kLong)});
      partial_aggs.push_back(
          {XtraColumn{fresh(), plan.count_name, QType::kLong, false},
           xtra::MakeAgg("count", e->args, QType::kLong)});
    } else {
      plan.partial_name =
          kPartialPrefix + std::string("p_") + std::to_string(seq);
      partial_aggs.push_back(
          {XtraColumn{fresh(), plan.partial_name, a.col.type, true},
           xtra::MakeAgg(e->func, e->args, a.col.type)});
    }
    plans.push_back(std::move(plan));
    ++seq;
  }
  XtraPtr partial = MakeGroupAgg(xtra::CloneTree(g->children[0]),
                                 g->group_keys, std::move(partial_aggs));
  partial->order_required = false;

  // Merge step 1: re-group the concatenated partials by the key values.
  PartialsScan ps = MakePartialsScan(partial->output);
  std::vector<NamedScalar> merge_keys;
  for (const auto& k : g->group_keys) {
    const XtraColumn& c = ps.get->output[ps.remap[k.col.id]];
    merge_keys.push_back(
        {XtraColumn{fresh(), c.name, c.type, c.nullable}, ColRefTo(c)});
  }
  std::vector<NamedScalar> merge_aggs;
  struct MergedCols {
    ColId value = kNoCol;  ///< merged sum/min/max/count column
    ColId count = kNoCol;  ///< avg only: merged count column
  };
  std::vector<MergedCols> merged(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    const AggPlan& plan = plans[i];
    const XtraColumn* pcol = ps.get->FindOutputByName(plan.partial_name);
    std::string merge_func =
        (plan.func == "min" || plan.func == "max") ? plan.func : "sum";
    QType merged_type =
        plan.func == "avg" ? QType::kLong : plan.original->col.type;
    merged[i].value = fresh();
    merge_aggs.push_back(
        {XtraColumn{merged[i].value,
                    kPartialPrefix + std::string("m_") + std::to_string(i),
                    merged_type, true},
         xtra::MakeAgg(merge_func, {ColRefTo(*pcol)}, merged_type)});
    if (plan.func == "avg") {
      const XtraColumn* ccol = ps.get->FindOutputByName(plan.count_name);
      merged[i].count = fresh();
      merge_aggs.push_back(
          {XtraColumn{merged[i].count,
                      kPartialPrefix + std::string("m_") + std::to_string(i) +
                          "_c",
                      QType::kLong, false},
           xtra::MakeAgg("sum", {ColRefTo(*ccol)}, QType::kLong)});
    }
  }
  XtraPtr regroup = MakeGroupAgg(ps.get, merge_keys, std::move(merge_aggs));

  // Merge step 2: restore the original column names and order, finishing
  // avg as sum/count (NULL for an empty/all-null group, matching the
  // single-backend aggregate) in a separate Project so no aggregate sits
  // inside an expression.
  std::vector<NamedScalar> final_cols;
  for (size_t i = 0; i < g->group_keys.size(); ++i) {
    const NamedScalar& k = g->group_keys[i];
    const XtraColumn& mk = regroup->output[i];
    final_cols.push_back(
        {XtraColumn{fresh(), k.col.name, k.col.type, k.col.nullable},
         ColRefTo(mk)});
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    const AggPlan& plan = plans[i];
    const NamedScalar& orig = *plan.original;
    const XtraColumn* mv = regroup->FindOutput(merged[i].value);
    ScalarPtr expr;
    if (plan.func == "avg") {
      const XtraColumn* mc = regroup->FindOutput(merged[i].count);
      auto cse = std::make_shared<ScalarExpr>();
      cse->kind = ScalarKind::kCase;
      cse->type = QType::kFloat;
      cse->has_else = true;
      cse->args = {MakeFunc("eq",
                            {ColRefTo(*mc), MakeConst(QValue::Long(0))},
                            QType::kBool),
                   MakeConst(QValue::NullOf(QType::kFloat)),
                   MakeFunc("fdiv", {ColRefTo(*mv), ColRefTo(*mc)},
                            QType::kFloat)};
      expr = cse;
    } else {
      expr = ColRefTo(*mv);
    }
    final_cols.push_back(
        {XtraColumn{fresh(), orig.col.name, orig.col.type, orig.col.nullable},
         std::move(expr)});
  }
  XtraPtr merge = MakeProject(regroup, std::move(final_cols));
  if (shape.sort) {
    // Sort keys are group-key column refs; re-point them at the Project's
    // corresponding outputs (same position: keys lead in both).
    std::map<ColId, const XtraColumn*> key_out;
    for (size_t i = 0; i < g->group_keys.size(); ++i) {
      key_out[g->group_keys[i].col.id] = &merge->output[i];
    }
    std::vector<XtraSortKey> sort_keys;
    for (const auto& k : shape.sort->sort_keys) {
      sort_keys.push_back({ColRefTo(*key_out[k.expr->col]), k.ascending});
    }
    merge = MakeSort(merge, std::move(sort_keys));
  }
  merge->order_required = false;

  out.mode = ShardMode::kTwoPhase;
  out.table = shape.base->table;
  out.partial = std::move(partial);
  out.merge = std::move(merge);
  if (shape.route_key) {
    out.routed = true;
    out.route_key = *shape.route_key;
  }
  return out;
}

}  // namespace

const char* ShardModeName(ShardMode mode) {
  switch (mode) {
    case ShardMode::kNone:
      return "none";
    case ShardMode::kOrdered:
      return "ordered";
    case ShardMode::kAligned:
      return "aligned";
    case ShardMode::kTwoPhase:
      return "two-phase";
  }
  return "unknown";
}

ShardRewrite PlanShardRewrite(const xtra::XtraPtr& root,
                              const ShardInfoFn& info) {
  if (!root || !info) return ShardRewrite{};

  AggShape shape;
  if (MatchAggShape(root, info, &shape)) {
    if (ShardRewrite r = TryAligned(shape, info); r.mode != ShardMode::kNone) {
      return r;
    }
    return TryTwoPhase(shape);
  }
  return TryOrdered(root, info);
}

}  // namespace hyperq
