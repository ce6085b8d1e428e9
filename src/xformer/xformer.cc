#include "xformer/xformer.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/strings.h"

namespace hyperq {

using xtra::ColId;
using xtra::kNoCol;
using xtra::NamedScalar;
using xtra::ScalarExpr;
using xtra::ScalarKind;
using xtra::ScalarPtr;
using xtra::XtraColumn;
using xtra::XtraKind;
using xtra::XtraOp;
using xtra::XtraPtr;

namespace {

bool IsNumeric(QType t) {
  return (IsIntegralBacked(t) || IsFloatBacked(t)) && !IsTemporal(t);
}

/// The plain WHERE spelling of a nullable comparison between an operand
/// and a constant atom, or nullptr when it has none. A filter keeps a row
/// only when its predicate is TRUE, so NULL may stand in for FALSE: with a
/// non-null literal `=`, `>` and `>=` need no null handling, and `<`, `<=`
/// and `<>` (which hold for a null operand, q ordering null first) add
/// `OR x IS NULL`. A null literal leaves only the operand's nullness.
/// Equality is folded only between numbers or within one q type: across
/// types q and IS [NOT] DISTINCT FROM say "unequal" where `=` errors.
ScalarPtr PlainLiteralComparison(const ScalarExpr& cmp) {
  static const std::map<std::string, std::string> kFlipped = {
      {"eq", "eq"}, {"ne", "ne"}, {"lt", "gt"},
      {"gt", "lt"}, {"le", "ge"}, {"ge", "le"},
  };
  ScalarPtr x = cmp.args[0];
  ScalarPtr lit = cmp.args[1];
  std::string op = cmp.func;
  if (lit->kind != ScalarKind::kConst) {
    std::swap(x, lit);
    op = kFlipped.at(op);
  }
  if (lit->kind != ScalarKind::kConst || !lit->value.is_atom()) return nullptr;
  ScalarPtr isnull = xtra::MakeFunc("isnull", {x}, QType::kBool);
  if (lit->value.IsNullAtom()) {
    if (op == "lt" || op == "ge") {
      return xtra::MakeConst(QValue::Bool(op == "ge"));
    }
    if (op == "eq" || op == "le") return isnull;
    return xtra::MakeFunc("notnull", {x}, QType::kBool);
  }
  if ((op == "eq" || op == "ne") && x->type != lit->type &&
      !(IsNumeric(x->type) && IsNumeric(lit->type))) {
    return nullptr;
  }
  ScalarPtr plain = xtra::MakeFunc(op, {x, lit}, QType::kBool);
  if (op == "eq" || op == "gt" || op == "ge") return plain;
  return xtra::MakeFunc("or", {plain, isnull}, QType::kBool);
}

/// Rewrites comparisons to null-aware forms when either operand can be
/// NULL; this imposes Q's 2-valued logic on the SQL backend (§3.3
/// Correctness). Equality maps to IS [NOT] DISTINCT FROM; the ordered
/// comparisons map to *_ind spellings that treat null as the smallest
/// value, matching q's total order (0n < x for every non-null x).
/// `filter` marks a filter predicate's positive positions (the predicate
/// itself and through and/or), where a literal comparison takes its plain
/// form instead.
ScalarPtr RewriteNullSemantics(const ScalarPtr& e, bool filter,
                               bool* changed) {
  if (!e) return e;
  auto copy = std::make_shared<ScalarExpr>(*e);
  const bool positive = filter && copy->kind == ScalarKind::kFunc &&
                        (copy->func == "and" || copy->func == "or");
  bool child_changed = false;
  for (auto& a : copy->args) {
    a = RewriteNullSemantics(a, positive, &child_changed);
  }
  for (auto& p : copy->partition_by) {
    p = RewriteNullSemantics(p, false, &child_changed);
  }
  for (auto& [o, asc] : copy->order_by) {
    o = RewriteNullSemantics(o, false, &child_changed);
  }
  bool self = false;
  if (copy->kind == ScalarKind::kFunc) {
    static const std::map<std::string, std::string> kNullAware = {
        {"eq", "eq_ind"}, {"ne", "ne_ind"}, {"lt", "lt_ind"},
        {"gt", "gt_ind"}, {"le", "le_ind"}, {"ge", "ge_ind"},
    };
    auto it = kNullAware.find(copy->func);
    if (it != kNullAware.end()) {
      bool nullable = false;
      for (const auto& a : copy->args) nullable |= a->nullable;
      if (nullable) {
        ScalarPtr plain = filter ? PlainLiteralComparison(*copy) : nullptr;
        if (plain) {
          *changed = true;
          return plain;
        }
        copy->func = it->second;
        self = true;
      }
    }
  }
  if (!child_changed && !self) return e;
  *changed = true;
  return copy;
}

/// `e` without its constant TRUE conjuncts (a null literal's `>=` folds to
/// one); nullptr when nothing is left to test.
ScalarPtr DropTrueConjuncts(const ScalarPtr& e) {
  if (e->kind == ScalarKind::kConst && e->value.is_atom() &&
      e->value.type() == QType::kBool && e->value.AsInt() != 0) {
    return nullptr;
  }
  if (e->kind != ScalarKind::kFunc || e->func != "and") return e;
  ScalarPtr lhs = DropTrueConjuncts(e->args[0]);
  ScalarPtr rhs = DropTrueConjuncts(e->args[1]);
  if (!lhs || !rhs) return lhs ? lhs : rhs;
  if (lhs == e->args[0] && rhs == e->args[1]) return e;
  return xtra::MakeFunc("and", {lhs, rhs}, QType::kBool);
}

void CollectRefsOf(const XtraOp& op, std::vector<ColId>* out) {
  CollectColumnRefs(op.predicate, out);
  for (const auto& p : op.projections) CollectColumnRefs(p.expr, out);
  for (const auto& k : op.group_keys) CollectColumnRefs(k.expr, out);
  for (const auto& s : op.sort_keys) CollectColumnRefs(s.expr, out);
}

}  // namespace

Status Xformer::Transform(const XtraPtr& root, bool result_order_required) {
  applied_rules_.clear();
  if (options_.null_semantics) {
    HQ_RETURN_IF_ERROR(ApplyNullSemantics(root));
  }
  if (options_.order_elision) {
    PropagateOrderRequirement(root, result_order_required, /*elide=*/true);
    applied_rules_.push_back("order_elision");
  } else {
    // Without the rule every operator keeps its ordering requirement.
    PropagateOrderRequirement(root, true, /*elide=*/false);
  }
  if (options_.column_pruning) {
    std::vector<ColId> all;
    for (const auto& c : root->output) all.push_back(c.id);
    HQ_RETURN_IF_ERROR(PruneColumns(root, all));
    applied_rules_.push_back("column_pruning");
  }
  return Status::OK();
}

Status Xformer::ApplyNullSemantics(const XtraPtr& op) {
  if (!op) return Status::OK();
  bool changed = false;
  if (op->predicate) {
    const bool filter = op->kind == XtraKind::kFilter;
    op->predicate = RewriteNullSemantics(op->predicate, filter, &changed);
    if (filter) op->predicate = DropTrueConjuncts(op->predicate);
    if (!op->predicate) {
      // Every row passes: the filter becomes its input.
      *op = XtraOp(*op->children[0]);
      applied_rules_.push_back("null_semantics");
      return ApplyNullSemantics(op);
    }
  }
  for (auto& p : op->projections) {
    p.expr = RewriteNullSemantics(p.expr, false, &changed);
  }
  for (auto& k : op->group_keys) {
    k.expr = RewriteNullSemantics(k.expr, false, &changed);
  }
  for (auto& s : op->sort_keys) {
    s.expr = RewriteNullSemantics(s.expr, false, &changed);
  }
  if (changed) applied_rules_.push_back("null_semantics");
  for (const auto& c : op->children) {
    HQ_RETURN_IF_ERROR(ApplyNullSemantics(c));
  }
  return Status::OK();
}

void Xformer::PropagateOrderRequirement(const XtraPtr& op, bool required,
                                        bool elide) {
  if (!op) return;
  op->order_required = required;
  if (!elide) {
    for (const auto& c : op->children) {
      PropagateOrderRequirement(c, true, false);
    }
    return;
  }
  switch (op->kind) {
    case XtraKind::kGroupAgg: {
      // Aggregation is order-insensitive unless it computes first/last,
      // which depend on the group's row order.
      bool needs_order = false;
      for (const auto& a : op->projections) {
        if (a.expr && a.expr->kind == ScalarKind::kAgg &&
            (a.expr->func == "first" || a.expr->func == "last")) {
          needs_order = true;
        }
      }
      PropagateOrderRequirement(op->children[0], needs_order, elide);
      return;
    }
    case XtraKind::kSort:
      // A sort re-establishes order; the child's order is irrelevant.
      PropagateOrderRequirement(op->children[0], false, elide);
      return;
    case XtraKind::kLimit:
      // LIMIT picks rows by position: the child order is load-bearing.
      PropagateOrderRequirement(op->children[0], true, elide);
      return;
    case XtraKind::kJoin:
      PropagateOrderRequirement(op->children[0], required, elide);
      PropagateOrderRequirement(op->children[1], false, elide);
      return;
    default:
      for (const auto& c : op->children) {
        PropagateOrderRequirement(c, required, elide);
      }
      return;
  }
}

Status Xformer::PruneColumns(const XtraPtr& op,
                             const std::vector<ColId>& required) {
  if (!op) return Status::OK();
  std::set<ColId> req(required.begin(), required.end());

  // The implicit order column stays when this subtree must deliver order.
  if (op->order_required && op->ord_col != kNoCol) req.insert(op->ord_col);

  switch (op->kind) {
    case XtraKind::kGet: {
      std::vector<XtraColumn> kept;
      for (const auto& c : op->output) {
        if (req.count(c.id) > 0) kept.push_back(c);
      }
      op->output = std::move(kept);
      if (op->ord_col != kNoCol && op->FindOutput(op->ord_col) == nullptr) {
        op->ord_col = kNoCol;
      }
      return Status::OK();
    }
    case XtraKind::kProject:
    case XtraKind::kGroupAgg: {
      // Keep required projections (group keys always stay: they define the
      // grouping semantics, as every column of a DISTINCT defines its rows).
      std::vector<NamedScalar> kept;
      for (const auto& p : op->projections) {
        if (op->distinct || req.count(p.col.id) > 0) kept.push_back(p);
      }
      op->projections = std::move(kept);
      op->output.clear();
      for (const auto& k : op->group_keys) op->output.push_back(k.col);
      for (const auto& p : op->projections) op->output.push_back(p.col);
      if (op->ord_col != kNoCol && op->FindOutput(op->ord_col) == nullptr) {
        op->ord_col = kNoCol;
      }
      // A projection of pure constants (e.g. a scalar function body) has
      // no input to prune.
      if (op->children.empty() || !op->children[0]) return Status::OK();
      std::vector<ColId> child_req;
      CollectRefsOf(*op, &child_req);
      return PruneColumns(op->children[0], child_req);
    }
    case XtraKind::kFilter:
    case XtraKind::kSort:
    case XtraKind::kLimit: {
      if (op->children.empty() || !op->children[0]) return Status::OK();
      std::vector<ColId> child_req(req.begin(), req.end());
      CollectRefsOf(*op, &child_req);
      HQ_RETURN_IF_ERROR(PruneColumns(op->children[0], child_req));
      // Pass-through operators mirror the child's (pruned) output.
      op->output = op->children[0]->output;
      if (op->ord_col != kNoCol && op->FindOutput(op->ord_col) == nullptr) {
        op->ord_col = kNoCol;
      }
      return Status::OK();
    }
    case XtraKind::kJoin: {
      std::vector<ColId> needed(req.begin(), req.end());
      CollectRefsOf(*op, &needed);
      std::set<ColId> needed_set(needed.begin(), needed.end());
      // Split requirements by owning child.
      for (size_t ci = 0; ci < op->children.size(); ++ci) {
        std::vector<ColId> child_req;
        for (ColId id : needed_set) {
          if (op->children[ci]->FindOutput(id) != nullptr) {
            child_req.push_back(id);
          }
        }
        HQ_RETURN_IF_ERROR(PruneColumns(op->children[ci], child_req));
      }
      std::vector<XtraColumn> kept;
      for (const auto& c : op->output) {
        if (req.count(c.id) > 0) kept.push_back(c);
      }
      op->output = std::move(kept);
      if (op->ord_col != kNoCol && op->FindOutput(op->ord_col) == nullptr) {
        op->ord_col = kNoCol;
      }
      return Status::OK();
    }
    case XtraKind::kUnionAll: {
      // Positional: prune the same positions from both children.
      std::vector<size_t> keep_pos;
      std::vector<XtraColumn> kept;
      for (size_t i = 0; i < op->output.size(); ++i) {
        if (req.count(op->output[i].id) > 0) {
          keep_pos.push_back(i);
          kept.push_back(op->output[i]);
        }
      }
      for (const auto& child : op->children) {
        std::vector<ColId> child_req;
        for (size_t pos : keep_pos) {
          child_req.push_back(child->output[pos].id);
        }
        HQ_RETURN_IF_ERROR(PruneColumns(child, child_req));
      }
      op->output = std::move(kept);
      if (op->ord_col != kNoCol && op->FindOutput(op->ord_col) == nullptr) {
        op->ord_col = kNoCol;
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace hyperq
