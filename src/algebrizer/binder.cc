#include "algebrizer/binder.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/strings.h"

namespace hyperq {

using xtra::ColId;
using xtra::kNoCol;
using xtra::MakeAgg;
using xtra::MakeCast;
using xtra::MakeColRef;
using xtra::MakeConst;
using xtra::MakeFunc;
using xtra::NamedScalar;
using xtra::ScalarExpr;
using xtra::ScalarKind;
using xtra::ScalarPtr;
using xtra::XtraColumn;
using xtra::XtraJoinKind;
using xtra::XtraKind;
using xtra::XtraOp;
using xtra::XtraPtr;
using xtra::XtraSortKey;

namespace {

/// q's output-name inference: `max Price` is named Price.
std::string InferName(const AstPtr& expr, int position) {
  const AstNode* n = expr.get();
  while (n != nullptr) {
    switch (n->kind) {
      case AstKind::kVarRef:
        return n->name;
      case AstKind::kApply:
        n = n->args.empty() ? nullptr : n->args[0].get();
        break;
      case AstKind::kDyad:
        n = n->lhs.get();
        break;
      default:
        n = nullptr;
        break;
    }
  }
  return StrCat("x", position == 0 ? std::string() : StrCat(position));
}

Result<XtraColumn> FindCol(const XtraOp& op, const std::string& name,
                           const char* what) {
  const XtraColumn* c = op.FindOutputByName(name);
  if (c == nullptr) {
    std::vector<std::string> names;
    for (const auto& oc : op.output) names.push_back(oc.name);
    return BindError(StrCat(what, ": column '", name,
                            "' not found; available columns: ",
                            Join(names, ", ")));
  }
  return *c;
}

ScalarPtr ColRefOf(const XtraColumn& c) {
  return MakeColRef(c.id, c.name, c.type, c.nullable);
}

ScalarPtr Conjoin(std::vector<ScalarPtr> conds) {
  ScalarPtr acc;
  for (auto& c : conds) {
    acc = acc ? MakeFunc("and", {acc, c}, QType::kBool) : c;
  }
  return acc;
}

/// Output columns by name, the first of a repeated name winning as in
/// XtraOp::FindOutputByName. Built once per join, so matching one side's
/// names against the other's is linear in their widths.
using OutputIndex = std::unordered_map<std::string_view, const XtraColumn*>;

OutputIndex IndexOutputs(const XtraOp& op) {
  OutputIndex index;
  index.reserve(op.output.size());
  for (const auto& c : op.output) index.emplace(c.name, &c);
  return index;
}

const XtraColumn* FindIn(const OutputIndex& index, const std::string& name) {
  auto it = index.find(name);
  return it == index.end() ? nullptr : it->second;
}

/// Appends every name a kVarRef below `node` mentions, nested templates
/// included: a superset of the columns binding `node` can read.
void CollectNames(const AstPtr& node, std::vector<std::string>* out) {
  if (!node) return;
  if (node->kind == AstKind::kVarRef) out->push_back(node->name);
  CollectNames(node->lhs, out);
  CollectNames(node->rhs, out);
  CollectNames(node->child, out);
  for (const auto& a : node->args) CollectNames(a, out);
  for (const auto& ne : node->select_list) CollectNames(ne.expr, out);
  for (const auto& ne : node->by_list) CollectNames(ne.expr, out);
  for (const auto& w : node->where_list) CollectNames(w, out);
  CollectNames(node->from, out);
}

/// `visible` plus `more`, kept in `storage`; null (every column) stays null.
const std::vector<std::string>* Plus(const std::vector<std::string>* visible,
                                     const std::vector<std::string>& more,
                                     std::vector<std::string>* storage) {
  if (visible == nullptr) return nullptr;
  *storage = *visible;
  storage->insert(storage->end(), more.begin(), more.end());
  return storage;
}

bool IsAggName(const std::string& name) {
  static const char* kNames[] = {"count", "sum", "avg", "min", "max",
                                 "med",   "dev", "var", "first", "last"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

/// True when `op` delivers its rows sorted by keys other than its order
/// column ascending: a sort, seen through the filters, limits and
/// projections that keep their input's order.
bool SortedByOtherKeys(const XtraOp& op) {
  const XtraOp* cur = &op;
  while (cur->kind == XtraKind::kFilter || cur->kind == XtraKind::kLimit ||
         cur->kind == XtraKind::kProject) {
    cur = cur->children[0].get();
  }
  if (cur->kind != XtraKind::kSort || cur->sort_keys.empty()) return false;
  const XtraSortKey& k = cur->sort_keys[0];
  return !(k.ascending && k.expr->kind == ScalarKind::kColRef &&
           k.expr->col == cur->ord_col);
}

bool ContainsWindow(const ScalarPtr& e) {
  if (!e) return false;
  if (e->kind == ScalarKind::kWindow) return true;
  for (const auto& a : e->args) {
    if (ContainsWindow(a)) return true;
  }
  return false;
}

/// `tree`, a sort under filters, with the filters moved below the sort
/// (a filter commutes with a stable sort); nullptr for any other shape.
XtraPtr FiltersBelowSort(const XtraPtr& tree) {
  if (tree->kind == XtraKind::kSort) return tree;
  if (tree->kind != XtraKind::kFilter) return nullptr;
  XtraPtr sort = FiltersBelowSort(tree->children[0]);
  if (!sort) return nullptr;
  return xtra::MakeSort(xtra::MakeFilter(sort->children[0], tree->predicate),
                        sort->sort_keys);
}

/// The last n rows of `tree` in its own order, when `tree` is a sort seen
/// through per-row projections and filters: the sort's keys are flipped,
/// the first n rows kept and the order restored under the projections.
/// nullptr for any other shape.
XtraPtr SortedTail(const XtraPtr& tree, int64_t n) {
  switch (tree->kind) {
    case XtraKind::kProject: {
      for (const NamedScalar& p : tree->projections) {
        if (ContainsWindow(p.expr)) return nullptr;
      }
      XtraPtr tail = SortedTail(tree->children[0], n);
      return tail ? xtra::MakeProject(std::move(tail), tree->projections)
                  : nullptr;
    }
    case XtraKind::kFilter: {
      XtraPtr sort = FiltersBelowSort(tree);
      return sort ? SortedTail(sort, n) : nullptr;
    }
    case XtraKind::kSort: {
      std::vector<XtraSortKey> rev = tree->sort_keys;
      for (auto& k : rev) k.ascending = !k.ascending;
      XtraPtr flipped = xtra::MakeSort(tree->children[0], std::move(rev));
      return xtra::MakeSort(xtra::MakeLimit(std::move(flipped), n, 0),
                            tree->sort_keys);
    }
    default:
      return nullptr;
  }
}

}  // namespace

bool ContainsAggregate(const ScalarPtr& e) {
  if (!e) return false;
  if (e->kind == ScalarKind::kAgg) return true;
  for (const auto& a : e->args) {
    if (ContainsAggregate(a)) return true;
  }
  return false;
}

QType DeriveFuncType(const std::string& func,
                     const std::vector<ScalarPtr>& args) {
  auto arg_type = [&](size_t i) {
    return i < args.size() ? args[i]->type : QType::kUnary;
  };
  if (func == "eq" || func == "ne" || func == "lt" || func == "gt" ||
      func == "le" || func == "ge" || func == "eq_ind" || func == "ne_ind" ||
      func == "and" || func == "or" || func == "not" || func == "isnull" ||
      func == "in" || func == "between" || func == "like") {
    return QType::kBool;
  }
  if (func == "fdiv" || func == "sqrt" || func == "exp" || func == "log" ||
      func == "avg" || func == "med" || func == "dev" || func == "var") {
    return QType::kFloat;
  }
  if (func == "count" || func == "count_star" || func == "row_number" ||
      func == "floor" || func == "ceiling" || func == "signum" ||
      func == "idiv") {
    return QType::kLong;
  }
  if (func == "concat" || func == "to_text") return QType::kChar;
  if (func == "coalesce" || func == "least" || func == "greatest") {
    QType t = arg_type(0);
    return t == QType::kUnary ? arg_type(1) : t;
  }
  if (func == "add" || func == "sub" || func == "mul" || func == "mod" ||
      func == "xbar") {
    QType a = arg_type(0);
    QType b = arg_type(1);
    if (IsFloatBacked(a) || IsFloatBacked(b)) return QType::kFloat;
    if (func == "sub" && IsTemporal(a) && a == b) {
      return a == QType::kTimestamp ? QType::kTimespan : QType::kLong;
    }
    if (IsTemporal(a)) return a;
    if (IsTemporal(b)) return b;
    return QType::kLong;
  }
  if (func == "sum") {
    return IsFloatBacked(arg_type(0)) ? QType::kFloat : QType::kLong;
  }
  if (func == "min" || func == "max" || func == "first" || func == "last" ||
      func == "neg" || func == "abs" || func == "lag" || func == "lead" ||
      func == "first_value" || func == "last_value") {
    return arg_type(0);
  }
  return arg_type(0);
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

Result<BoundQuery> Binder::BindQuery(const AstPtr& node) {
  const int first_id = next_col_id_;
  BindTrace before;
  if (trace_ != nullptr) before = *trace_;
  Result<BoundQuery> out = BindQueryOnce(node);
  if (out.ok()) return out;
  // A narrowed scan lacks the columns an error lists as available: re-bind
  // at full width so a failure reads as the catalog does.
  next_col_id_ = first_id;
  if (trace_ != nullptr) *trace_ = std::move(before);
  narrow_ = false;
  out = BindQueryOnce(node);
  narrow_ = true;
  if (out.ok()) {
    // Both binds must agree, so a statement only the full width binds is a
    // narrowing defect: count it where tests and operators can see it.
    if (trace_ != nullptr) ++trace_->narrow_misses;
    static Counter* misses =
        MetricsRegistry::Global().GetCounter("translate.narrow_misses");
    misses->Increment();
  }
  return out;
}

Result<BoundQuery> Binder::BindQueryOnce(const AstPtr& node) {
  if (node->kind == AstKind::kQuery) {
    HQ_ASSIGN_OR_RETURN(XtraPtr root, BindQueryTemplate(*node, nullptr));
    BoundQuery out;
    out.root = std::move(root);
    switch (node->query_kind) {
      case QueryKind::kSelect:
        out.shape = node->by_list.empty() ? ResultShape::kTable
                                          : ResultShape::kKeyedTable;
        if (!node->by_list.empty()) {
          for (size_t i = 0; i < node->by_list.size(); ++i) {
            out.key_columns.push_back(
                node->by_list[i].name.empty()
                    ? InferName(node->by_list[i].expr, static_cast<int>(i))
                    : node->by_list[i].name);
          }
        }
        break;
      case QueryKind::kExec: {
        bool single = node->select_list.size() == 1;
        if (!node->by_list.empty()) {
          // exec ... by returns a dictionary keyed by the by-expression.
          out.shape = single ? ResultShape::kDict : ResultShape::kKeyedTable;
          for (size_t i = 0; i < node->by_list.size(); ++i) {
            out.key_columns.push_back(
                node->by_list[i].name.empty()
                    ? InferName(node->by_list[i].expr, static_cast<int>(i))
                    : node->by_list[i].name);
          }
          break;
        }
        bool agg = false;
        if (single) {
          // Peek: the bound tree is a scalar GroupAgg for aggregates.
          agg = out.root->kind == XtraKind::kGroupAgg &&
                out.root->group_keys.empty();
        }
        out.shape = single ? (agg ? ResultShape::kAtom : ResultShape::kList)
                           : ResultShape::kTable;
        break;
      }
      default:
        out.shape = ResultShape::kTable;
        break;
    }
    return out;
  }

  // `count t` over a table: COUNT(*) scalar aggregate.
  if (node->kind == AstKind::kApply && node->args.size() == 1 &&
      (node->child->kind == AstKind::kVarRef ||
       node->child->kind == AstKind::kFnRef) &&
      (node->child->name == "count" || node->child->name == "#")) {
    const Names none;
    Result<XtraPtr> table =
        BindTableExpr(node->args[0], narrow_ ? &none : nullptr);
    if (table.ok()) {
      XtraColumn col{NextId(), "count", QType::kLong, false};
      std::vector<NamedScalar> aggs;
      aggs.push_back(
          NamedScalar{col, MakeAgg("count_star", {}, QType::kLong)});
      BoundQuery out;
      out.root = xtra::MakeGroupAgg(std::move(table).value(), {},
                                    std::move(aggs));
      out.shape = ResultShape::kAtom;
      return out;
    }
  }

  // Non-template expression: table expression or scalar.
  Result<XtraPtr> table = BindTableExpr(node);
  if (table.ok()) {
    BoundQuery out;
    out.root = std::move(table).value();
    out.shape = ResultShape::kTable;
    return out;
  }
  // Scalar fallback: SELECT <expr> without FROM.
  Result<ScalarPtr> scalar = BindScalar(node, nullptr);
  if (!scalar.ok()) return table.status();  // table error is usually better
  auto proj = std::make_shared<XtraOp>();
  proj->kind = XtraKind::kProject;
  XtraColumn col;
  col.id = NextId();
  col.name = "value";
  col.type = (*scalar)->type;
  proj->output.push_back(col);
  proj->projections.push_back(NamedScalar{col, std::move(scalar).value()});
  proj->ord_col = kNoCol;
  BoundQuery out;
  out.root = std::move(proj);
  out.shape = ResultShape::kAtom;
  return out;
}

Result<QValue> Binder::BindConstant(const AstPtr& node) {
  switch (node->kind) {
    case AstKind::kLiteral:
      return node->literal;
    case AstKind::kVarRef: {
      HQ_ASSIGN_OR_RETURN(VarBinding b, LookupVar(node->name));
      if (b.kind == VarBinding::Kind::kScalar) return b.scalar;
      return BindError(StrCat("'", node->name,
                              "' is not a constant in this context"));
    }
    default:
      return BindError(
          "expression is not a translatable constant; only literals and "
          "scalar variables are supported here");
  }
}

Result<VarBinding> Binder::LookupVar(const std::string& name) {
  Result<VarBinding> b = scopes_->Lookup(name);
  if (trace_ != nullptr && b.ok()) {
    trace_->ref_names.push_back(name);
    if (scopes_->IsShadowed(name)) {
      trace_->used_scope_var = true;
    } else if (b->kind == VarBinding::Kind::kRelation) {
      trace_->ref_tables.push_back(b->table);
    }
  }
  return b;
}

Result<std::vector<std::string>> Binder::SymbolListOf(const AstPtr& node,
                                                      const char* what) {
  if (node->kind != AstKind::kLiteral) {
    return BindError(StrCat(what, " requires a literal symbol list"));
  }
  const QValue& v = node->literal;
  if (v.is_atom() && v.type() == QType::kSymbol) {
    return std::vector<std::string>{v.AsSym()};
  }
  if (!v.is_atom() && v.type() == QType::kSymbol) {
    return v.SymsView();
  }
  return BindError(StrCat(what, " requires symbols, got ",
                          QTypeName(v.type())));
}

// ---------------------------------------------------------------------------
// Table expressions
// ---------------------------------------------------------------------------

XtraPtr Binder::BindScan(const TableMetadata& meta, const Names* visible) {
  // Ids are reserved for the whole width, so a narrowed scan numbers its
  // columns as a full one does and later ids do not shift.
  const ColId first = next_col_id_;
  next_col_id_ += static_cast<int>(meta.columns.size()) + 1;
  std::vector<size_t> picked;
  if (visible == nullptr) {
    picked.resize(meta.columns.size());
    for (size_t i = 0; i < picked.size(); ++i) picked[i] = i;
  } else {
    for (const auto& name : *visible) {
      int i = meta.ColumnIndex(name);
      if (i >= 0) picked.push_back(static_cast<size_t>(i));
    }
    std::sort(picked.begin(), picked.end());
    picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  }
  std::vector<XtraColumn> cols;
  cols.reserve(picked.size() + 1);
  for (size_t i : picked) {
    const ColumnMetadata& c = meta.columns[i];
    cols.push_back(
        XtraColumn{first + static_cast<ColId>(i), c.name, c.type, true});
  }
  ColId ord = kNoCol;
  if (meta.has_ordcol) {
    ord = first + static_cast<ColId>(meta.columns.size());
    cols.push_back(XtraColumn{ord, kOrdColName, QType::kLong, false});
  }
  return xtra::MakeGet(meta.name, std::move(cols), ord);
}

Result<XtraPtr> Binder::BindTableExpr(const AstPtr& node,
                                      const Names* visible) {
  switch (node->kind) {
    case AstKind::kVarRef: {
      HQ_ASSIGN_OR_RETURN(VarBinding b, LookupVar(node->name));
      if (b.kind != VarBinding::Kind::kRelation) {
        return BindError(StrCat("'", node->name,
                                "' is not bound to a table (it is a ",
                                b.kind == VarBinding::Kind::kScalar
                                    ? "scalar variable"
                                    : "function",
                                ")"));
      }
      HQ_ASSIGN_OR_RETURN(TableMetadataPtr meta, mdi_->LookupTable(b.table));
      return BindScan(*meta, visible);
    }
    case AstKind::kQuery:
      return BindQueryTemplate(*node, visible);
    case AstKind::kApply: {
      const AstPtr& callee = node->child;
      if (callee->kind == AstKind::kVarRef ||
          callee->kind == AstKind::kFnRef) {
        const std::string& name = callee->name;
        if (name == "aj" || name == "aj0") {
          return BindAsOfJoin(*node, visible);
        }
        if (name == "ej") return BindEquiJoinCall(*node, visible);
        if (name == "distinct" && node->args.size() == 1) {
          // Every column decides which rows are distinct: bind them all.
          HQ_ASSIGN_OR_RETURN(XtraPtr child, BindTableExpr(node->args[0]));
          XtraPtr proj = child;
          // DISTINCT over all columns except the order column.
          std::vector<NamedScalar> projections;
          for (const auto& c : child->output) {
            if (c.id == child->ord_col) continue;
            projections.push_back(NamedScalar{c, ColRefOf(c)});
          }
          XtraPtr out = xtra::MakeProject(child, std::move(projections));
          out->distinct = true;
          out->ord_col = kNoCol;
          return out;
        }
      }
      return BindError(StrCat(
          "cannot translate application of '",
          callee->kind == AstKind::kVarRef || callee->kind == AstKind::kFnRef
              ? callee->name
              : "<expression>",
          "' as a table expression"));
    }
    case AstKind::kDyad: {
      const std::string& op = node->name;
      if (op == "lj" || op == "ij") {
        return BindKeyedJoin(op, node->lhs, node->rhs, visible);
      }
      if (op == "uj" || op == ",") {
        return BindUnionJoin(node->lhs, node->rhs, visible);
      }
      if (op == "xasc" || op == "xdesc") {
        return BindSortTable(op, node->lhs, node->rhs, visible);
      }
      if (op == "#") return BindTake(node->lhs, node->rhs, visible);
      if (op == "xkey") {
        HQ_ASSIGN_OR_RETURN(KeyedInput in, ResolveKeyedInput(node));
        Names seen;
        return BindKeyedInput(node, in, Plus(visible, in.keys, &seen));
      }
      if (op == "!") {
        // n!t keys the first n columns; 0!t unkeys. Keys are binder-level
        // metadata — the relational shape is unchanged. Keys count
        // columns by position, so the input keeps them all.
        Result<QValue> n = BindConstant(node->lhs);
        if (n.ok() && n->is_atom() && IsIntegralBacked(n->type())) {
          return BindTableExpr(node->rhs);
        }
        return BindError(
            "dyadic '!' over tables requires an integer key count");
      }
      if (op == "xcol") {
        // Renames by position: the input keeps every column.
        HQ_ASSIGN_OR_RETURN(std::vector<std::string> names,
                            SymbolListOf(node->lhs, "xcol"));
        HQ_ASSIGN_OR_RETURN(XtraPtr child, BindTableExpr(node->rhs));
        std::vector<NamedScalar> projections;
        size_t renamed = 0;
        for (const auto& c : child->output) {
          XtraColumn col = c;
          if (c.id != child->ord_col && renamed < names.size()) {
            col.name = names[renamed++];
          }
          projections.push_back(NamedScalar{col, ColRefOf(c)});
        }
        return xtra::MakeProject(child, std::move(projections));
      }
      return BindError(StrCat("cannot translate dyadic '", op,
                              "' as a table expression"));
    }
    default:
      return BindError(
          "expression does not produce a table; expected a query template, "
          "table variable or join");
  }
}

Result<Binder::KeyedInput> Binder::ResolveKeyedInput(const AstPtr& node) {
  if (node->kind == AstKind::kDyad && node->name == "xkey") {
    HQ_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                        SymbolListOf(node->lhs, "xkey"));
    return KeyedInput{std::move(keys), nullptr};
  }
  if (node->kind == AstKind::kVarRef) {
    HQ_ASSIGN_OR_RETURN(VarBinding b, LookupVar(node->name));
    if (b.kind == VarBinding::Kind::kRelation) {
      HQ_ASSIGN_OR_RETURN(TableMetadataPtr meta, mdi_->LookupTable(b.table));
      if (meta->key_columns.empty()) {
        return BindError(StrCat("table '", node->name,
                                "' is not keyed; lj/ij require a keyed "
                                "right input"));
      }
      std::vector<std::string> keys = meta->key_columns;
      return KeyedInput{std::move(keys), std::move(meta)};
    }
  }
  return BindError(
      "right input of lj/ij must be a keyed table (a table with key "
      "columns or an explicit `k xkey t`)");
}

Result<XtraPtr> Binder::BindKeyedInput(const AstPtr& node,
                                       const KeyedInput& in,
                                       const Names* visible) {
  if (in.meta) return BindScan(*in.meta, visible);
  HQ_ASSIGN_OR_RETURN(XtraPtr op, BindTableExpr(node->rhs, visible));
  for (const auto& k : in.keys) {
    HQ_RETURN_IF_ERROR(FindCol(*op, k, "xkey").status());
  }
  return op;
}

Result<XtraPtr> Binder::BindAsOfJoin(const AstNode& apply,
                                     const Names* visible) {
  if (apply.args.size() != 3) {
    return BindError("aj[cols; t1; t2] takes exactly 3 arguments");
  }
  HQ_ASSIGN_OR_RETURN(std::vector<std::string> names,
                      SymbolListOf(apply.args[0], "aj"));
  if (names.empty()) return BindError("aj: no join columns given");
  Names seen;
  visible = Plus(visible, names, &seen);
  HQ_ASSIGN_OR_RETURN(XtraPtr left, BindTableExpr(apply.args[1], visible));
  HQ_ASSIGN_OR_RETURN(XtraPtr right, BindTableExpr(apply.args[2], visible));

  std::string time_name = names.back();
  std::vector<std::string> key_names(names.begin(), names.end() - 1);

  HQ_ASSIGN_OR_RETURN(XtraColumn ltime, FindCol(*left, time_name, "aj"));
  HQ_ASSIGN_OR_RETURN(XtraColumn rtime, FindCol(*right, time_name, "aj"));

  // Extend the right input with the next-quote time per key: the window
  // function lowering of Figure 2 (left outer join + window on the right).
  std::vector<ScalarPtr> partition;
  for (const auto& k : key_names) {
    HQ_ASSIGN_OR_RETURN(XtraColumn rc, FindCol(*right, k, "aj"));
    partition.push_back(ColRefOf(rc));
  }
  auto lead = std::make_shared<ScalarExpr>();
  lead->kind = ScalarKind::kWindow;
  lead->func = "lead";
  lead->args.push_back(ColRefOf(rtime));
  lead->partition_by = partition;
  lead->order_by.push_back({ColRefOf(rtime), true});
  lead->type = rtime.type;
  lead->nullable = true;

  std::vector<NamedScalar> right_proj;
  for (const auto& c : right->output) {
    right_proj.push_back(NamedScalar{c, ColRefOf(c)});
  }
  XtraColumn next_col{NextId(), "hq_next_time", rtime.type, true};
  right_proj.push_back(NamedScalar{next_col, ScalarPtr(lead)});
  XtraPtr right_ext = xtra::MakeProject(right, std::move(right_proj));

  // Join condition: keys match (2VL equality), r.time <= l.time, and the
  // left time falls before the next quote (or there is none).
  std::vector<ScalarPtr> conds;
  for (const auto& k : key_names) {
    HQ_ASSIGN_OR_RETURN(XtraColumn lc, FindCol(*left, k, "aj"));
    HQ_ASSIGN_OR_RETURN(XtraColumn rc, FindCol(*right_ext, k, "aj"));
    conds.push_back(
        MakeFunc("eq", {ColRefOf(lc), ColRefOf(rc)}, QType::kBool));
  }
  conds.push_back(
      MakeFunc("le", {ColRefOf(rtime), ColRefOf(ltime)}, QType::kBool));
  conds.push_back(MakeFunc(
      "or",
      {MakeFunc("lt", {ColRefOf(ltime), ColRefOf(next_col)}, QType::kBool),
       MakeFunc("isnull", {ColRefOf(next_col)}, QType::kBool)},
      QType::kBool));

  // Output: left columns, with right non-key columns overwriting same-named
  // ones (q aj semantics) and new right columns appended.
  std::set<std::string> join_cols(names.begin(), names.end());
  const OutputIndex left_names = IndexOutputs(*left);
  const OutputIndex right_names = IndexOutputs(*right);
  std::vector<XtraColumn> output;
  for (const auto& lc : left->output) {
    if (join_cols.count(lc.name) == 0 && lc.name != kOrdColName) {
      const XtraColumn* rc = FindIn(right_names, lc.name);
      if (rc != nullptr) {
        XtraColumn col = *rc;
        col.nullable = true;  // unmatched rows yield NULL
        output.push_back(col);
        continue;
      }
    }
    output.push_back(lc);
  }
  for (const auto& rc : right->output) {
    if (join_cols.count(rc.name) > 0 || rc.name == kOrdColName) continue;
    if (FindIn(left_names, rc.name) != nullptr) continue;  // handled
    XtraColumn col = rc;
    col.nullable = true;
    output.push_back(col);
  }

  return xtra::MakeJoin(XtraJoinKind::kLeftOuter, left, right_ext,
                        Conjoin(std::move(conds)), std::move(output));
}

Result<XtraPtr> Binder::BindEquiJoinCall(const AstNode& apply,
                                         const Names* visible) {
  if (apply.args.size() != 3) {
    return BindError("ej[cols; t1; t2] takes exactly 3 arguments");
  }
  HQ_ASSIGN_OR_RETURN(std::vector<std::string> names,
                      SymbolListOf(apply.args[0], "ej"));
  if (names.empty()) return BindError("ej: no join columns given");
  Names seen;
  visible = Plus(visible, names, &seen);
  HQ_ASSIGN_OR_RETURN(XtraPtr left, BindTableExpr(apply.args[1], visible));
  HQ_ASSIGN_OR_RETURN(XtraPtr right, BindTableExpr(apply.args[2], visible));

  std::vector<ScalarPtr> conds;
  for (const auto& k : names) {
    HQ_ASSIGN_OR_RETURN(XtraColumn lc, FindCol(*left, k, "ej"));
    HQ_ASSIGN_OR_RETURN(XtraColumn rc, FindCol(*right, k, "ej"));
    conds.push_back(
        MakeFunc("eq", {ColRefOf(lc), ColRefOf(rc)}, QType::kBool));
  }

  // Inner join, all matches; right non-key columns overwrite same-named
  // left columns (q ej semantics), new right columns are appended.
  std::set<std::string> key_set(names.begin(), names.end());
  const OutputIndex left_names = IndexOutputs(*left);
  const OutputIndex right_names = IndexOutputs(*right);
  std::vector<XtraColumn> output;
  for (const auto& lc : left->output) {
    if (key_set.count(lc.name) == 0 && lc.name != kOrdColName) {
      const XtraColumn* rc = FindIn(right_names, lc.name);
      if (rc != nullptr) {
        output.push_back(*rc);
        continue;
      }
    }
    output.push_back(lc);
  }
  for (const auto& rc : right->output) {
    if (key_set.count(rc.name) > 0 || rc.name == kOrdColName) continue;
    if (FindIn(left_names, rc.name) != nullptr) continue;
    output.push_back(rc);
  }
  return xtra::MakeJoin(XtraJoinKind::kInner, left, right,
                        Conjoin(std::move(conds)), std::move(output));
}

Result<XtraPtr> Binder::BindKeyedJoin(const std::string& op,
                                      const AstPtr& left_ast,
                                      const AstPtr& right_ast,
                                      const Names* visible) {
  // Both sides also bind the right input's keys. A right input that does
  // not resolve reports after the left side binds, as it always has.
  Result<KeyedInput> keyed = ResolveKeyedInput(right_ast);
  Names seen;
  if (keyed.ok()) visible = Plus(visible, keyed->keys, &seen);
  HQ_ASSIGN_OR_RETURN(XtraPtr left, BindTableExpr(left_ast, visible));
  HQ_RETURN_IF_ERROR(keyed.status());
  HQ_ASSIGN_OR_RETURN(XtraPtr right,
                      BindKeyedInput(right_ast, *keyed, visible));
  const std::vector<std::string>& keys = keyed->keys;

  // Add a match marker so lj can keep the left value on unmatched rows.
  std::vector<NamedScalar> right_proj;
  for (const auto& c : right->output) {
    right_proj.push_back(NamedScalar{c, ColRefOf(c)});
  }
  XtraColumn match_col{NextId(), "hq_match", QType::kBool, false};
  right_proj.push_back(
      NamedScalar{match_col, MakeConst(QValue::Bool(true))});
  XtraPtr right_ext = xtra::MakeProject(right, std::move(right_proj));

  std::vector<ScalarPtr> conds;
  for (const auto& k : keys) {
    HQ_ASSIGN_OR_RETURN(XtraColumn lc, FindCol(*left, k, op.c_str()));
    HQ_ASSIGN_OR_RETURN(XtraColumn rc, FindCol(*right_ext, k, op.c_str()));
    conds.push_back(
        MakeFunc("eq", {ColRefOf(lc), ColRefOf(rc)}, QType::kBool));
  }

  bool is_lj = op == "lj";
  std::set<std::string> key_set(keys.begin(), keys.end());

  // Build the join with full child outputs, then project the q-visible
  // columns (overwrite semantics).
  std::vector<XtraColumn> join_out = left->output;
  for (const auto& c : right_ext->output) {
    if (c.name == kOrdColName) continue;
    join_out.push_back(c);
  }
  XtraPtr join = xtra::MakeJoin(
      is_lj ? XtraJoinKind::kLeftOuter : XtraJoinKind::kInner, left,
      right_ext, Conjoin(std::move(conds)), join_out);

  const OutputIndex left_names = IndexOutputs(*left);
  const OutputIndex right_names = IndexOutputs(*right);
  std::vector<NamedScalar> projections;
  for (const auto& lc : left->output) {
    if (key_set.count(lc.name) == 0 && lc.name != kOrdColName) {
      const XtraColumn* rc = FindIn(right_names, lc.name);
      if (rc != nullptr) {
        // Overwrite: matched rows take the right value, unmatched (lj only)
        // keep the left value.
        ScalarPtr val;
        if (is_lj) {
          auto cse = std::make_shared<ScalarExpr>();
          cse->kind = ScalarKind::kCase;
          cse->args = {MakeFunc("not",
                                {MakeFunc("isnull", {ColRefOf(match_col)},
                                          QType::kBool)},
                                QType::kBool),
                       ColRefOf(*rc), ColRefOf(lc)};
          cse->has_else = true;
          cse->type = rc->type;
          cse->nullable = true;
          val = cse;
        } else {
          val = ColRefOf(*rc);
        }
        XtraColumn col{NextId(), lc.name, rc->type, true};
        projections.push_back(NamedScalar{col, std::move(val)});
        continue;
      }
    }
    projections.push_back(NamedScalar{lc, ColRefOf(lc)});
  }
  for (const auto& rc : right->output) {
    if (key_set.count(rc.name) > 0 || rc.name == kOrdColName) continue;
    if (FindIn(left_names, rc.name) != nullptr) continue;
    XtraColumn col = rc;
    col.nullable = true;
    projections.push_back(NamedScalar{col, ColRefOf(rc)});
  }
  return xtra::MakeProject(std::move(join), std::move(projections));
}

Result<XtraPtr> Binder::BindUnionJoin(const AstPtr& left_ast,
                                      const AstPtr& right_ast,
                                      const Names* visible) {
  HQ_ASSIGN_OR_RETURN(XtraPtr left, BindTableExpr(left_ast, visible));
  HQ_ASSIGN_OR_RETURN(XtraPtr right, BindTableExpr(right_ast, visible));

  // Union column set: left columns then right-only columns.
  struct OutCol {
    std::string name;
    QType type;
  };
  std::vector<OutCol> names;
  std::unordered_set<std::string_view> present;
  for (const auto& c : left->output) {
    if (c.name == kOrdColName) continue;
    names.push_back({c.name, c.type});
    present.insert(c.name);
  }
  for (const auto& c : right->output) {
    if (c.name == kOrdColName || !present.insert(c.name).second) continue;
    names.push_back({c.name, c.type});
  }

  // Align both sides: missing columns become typed NULLs; a source tag and
  // the original ordcol preserve q's append order.
  auto align = [&](const XtraPtr& side, int tag) -> Result<XtraPtr> {
    const OutputIndex side_names = IndexOutputs(*side);
    std::vector<NamedScalar> projections;
    for (const auto& n : names) {
      const XtraColumn* c = FindIn(side_names, n.name);
      XtraColumn col{NextId(), n.name, n.type, true};
      if (c != nullptr) {
        projections.push_back(NamedScalar{col, ColRefOf(*c)});
      } else {
        projections.push_back(
            NamedScalar{col, MakeConst(QValue::NullOf(n.type))});
      }
    }
    XtraColumn tag_col{NextId(), "hq_src", QType::kLong, false};
    projections.push_back(
        NamedScalar{tag_col, MakeConst(QValue::Long(tag))});
    XtraColumn ord_col{NextId(), "hq_ord", QType::kLong, false};
    if (side->ord_col != kNoCol) {
      const XtraColumn* oc = side->FindOutput(side->ord_col);
      projections.push_back(NamedScalar{ord_col, ColRefOf(*oc)});
    } else {
      projections.push_back(NamedScalar{ord_col, MakeConst(QValue::Long(0))});
    }
    return xtra::MakeProject(side, std::move(projections));
  };
  HQ_ASSIGN_OR_RETURN(XtraPtr l, align(left, 0));
  HQ_ASSIGN_OR_RETURN(XtraPtr r, align(right, 1));

  // Union output columns: positional, new ids mirroring the left side.
  std::vector<XtraColumn> out_cols;
  for (const auto& c : l->output) out_cols.push_back(c);
  XtraPtr u = xtra::MakeUnionAll(l, r, out_cols);

  // Deterministic append order: left rows then right rows.
  std::vector<XtraSortKey> sort;
  HQ_ASSIGN_OR_RETURN(XtraColumn src, FindCol(*u, "hq_src", "uj"));
  HQ_ASSIGN_OR_RETURN(XtraColumn ord, FindCol(*u, "hq_ord", "uj"));
  sort.push_back({ColRefOf(src), true});
  sort.push_back({ColRefOf(ord), true});
  XtraPtr sorted = xtra::MakeSort(u, std::move(sort));

  // Hide the helper columns from the q-visible output.
  std::vector<NamedScalar> projections;
  for (const auto& c : sorted->output) {
    if (c.name == "hq_src" || c.name == "hq_ord") continue;
    projections.push_back(NamedScalar{c, ColRefOf(c)});
  }
  return xtra::MakeProject(sorted, std::move(projections));
}

Result<XtraPtr> Binder::BindSortTable(const std::string& op,
                                      const AstPtr& cols,
                                      const AstPtr& table,
                                      const Names* visible) {
  HQ_ASSIGN_OR_RETURN(std::vector<std::string> names,
                      SymbolListOf(cols, op.c_str()));
  Names seen;
  HQ_ASSIGN_OR_RETURN(XtraPtr child,
                      BindTableExpr(table, Plus(visible, names, &seen)));
  std::vector<XtraSortKey> keys;
  for (const auto& n : names) {
    HQ_ASSIGN_OR_RETURN(XtraColumn c, FindCol(*child, n, op.c_str()));
    keys.push_back({ColRefOf(c), op == "xasc"});
  }
  return xtra::MakeSort(std::move(child), std::move(keys));
}

Result<XtraPtr> Binder::BindTake(const AstPtr& count, const AstPtr& table,
                                 const Names* visible) {
  HQ_ASSIGN_OR_RETURN(QValue n, BindConstant(count));
  if (!n.is_atom() || !IsIntegralBacked(n.type())) {
    return BindError("take (#) over a table requires an integer count");
  }
  HQ_ASSIGN_OR_RETURN(XtraPtr child, BindTableExpr(table, visible));
  int64_t cnt = n.AsInt();
  // A child that already defines an order (xasc/xdesc, also under a
  // select) takes rows in that order; no ordcol resort needed.
  if (child->kind == XtraKind::kSort || SortedByOtherKeys(*child)) {
    if (cnt >= 0) return xtra::MakeLimit(std::move(child), cnt, 0);
    if (XtraPtr tail = SortedTail(child, -cnt)) return tail;
  }
  if (child->ord_col == kNoCol) {
    return BindError(
        "take (#) requires the table to carry an implicit order column "
        "(ordcol) or an explicit ordering");
  }
  const XtraColumn* oc = child->FindOutput(child->ord_col);
  if (cnt >= 0) {
    XtraPtr sorted =
        xtra::MakeSort(child, {XtraSortKey{ColRefOf(*oc), true}});
    return xtra::MakeLimit(std::move(sorted), cnt, 0);
  }
  // -n#t: last n rows — sort descending, limit, restore ascending order.
  XtraPtr desc = xtra::MakeSort(child, {XtraSortKey{ColRefOf(*oc), false}});
  XtraPtr limited = xtra::MakeLimit(std::move(desc), -cnt, 0);
  return xtra::MakeSort(std::move(limited),
                        {XtraSortKey{ColRefOf(*oc), true}});
}

// ---------------------------------------------------------------------------
// Query template
// ---------------------------------------------------------------------------

Result<XtraPtr> Binder::BindQueryTemplate(const AstNode& node,
                                          const Names* visible) {
  // A select or exec with a column list reads only the names its select,
  // by and where lists mention. Without one, every column of its input can
  // reach the caller, who sees `visible`. update and delete rewrite whole
  // rows, so their input keeps every column.
  Names seen;
  const Names* from_visible = nullptr;
  if (narrow_ &&
      (node.query_kind == QueryKind::kSelect ||
       node.query_kind == QueryKind::kExec) &&
      (!node.select_list.empty() || visible != nullptr)) {
    if (node.select_list.empty()) seen = *visible;
    for (const auto& ne : node.select_list) CollectNames(ne.expr, &seen);
    for (const auto& ne : node.by_list) CollectNames(ne.expr, &seen);
    for (const auto& w : node.where_list) CollectNames(w, &seen);
    if (!node.query_order_col.empty()) seen.push_back(node.query_order_col);
    from_visible = &seen;
  }
  HQ_ASSIGN_OR_RETURN(XtraPtr from, BindTableExpr(node.from, from_visible));

  // where: sequential conditions become chained filters. Window functions
  // inside a condition (the fby idiom) are not legal in SQL WHERE clauses,
  // so they are first materialized as helper columns of a projection.
  // update and delete … where rewrite rows of the unfiltered table instead:
  // their conditions, bound once over it, become one per-column CASE or
  // one negated filter below.
  const bool row_rewrite =
      node.query_kind == QueryKind::kUpdate ||
      (node.query_kind == QueryKind::kDelete && node.delete_cols.empty());
  std::vector<ScalarPtr> conds;
  for (const auto& cond : node.where_list) {
    HQ_ASSIGN_OR_RETURN(ScalarPtr pred, BindScalar(cond, from.get()));
    if (ContainsAggregate(pred)) {
      return Unsupported(
          "aggregates in where clauses are not yet translatable (use fby "
          "for per-group comparisons)");
    }
    if (row_rewrite) {
      conds.push_back(std::move(pred));
      continue;
    }
    std::vector<ScalarPtr> windows;
    std::function<void(const ScalarPtr&)> collect =
        [&](const ScalarPtr& e) {
          if (!e) return;
          if (e->kind == ScalarKind::kWindow) {
            windows.push_back(e);
            return;
          }
          for (const auto& a : e->args) collect(a);
        };
    collect(pred);
    if (!windows.empty()) {
      std::vector<NamedScalar> projections;
      for (const auto& c : from->output) {
        projections.push_back(NamedScalar{c, ColRefOf(c)});
      }
      // One helper column per window node; the predicate is rewritten to
      // reference it.
      std::map<const ScalarExpr*, ScalarPtr> replacement;
      for (size_t i = 0; i < windows.size(); ++i) {
        XtraColumn col{NextId(), StrCat("hq_w", NextId()),
                       windows[i]->type, true};
        projections.push_back(NamedScalar{col, windows[i]});
        replacement[windows[i].get()] =
            MakeColRef(col.id, col.name, col.type, true);
      }
      std::function<ScalarPtr(const ScalarPtr&)> rewrite =
          [&](const ScalarPtr& e) -> ScalarPtr {
        if (!e) return e;
        auto it = replacement.find(e.get());
        if (it != replacement.end()) return it->second;
        auto copy = std::make_shared<ScalarExpr>(*e);
        for (auto& a : copy->args) a = rewrite(a);
        return copy;
      };
      pred = rewrite(pred);
      from = xtra::MakeProject(std::move(from), std::move(projections));
    }
    from = xtra::MakeFilter(std::move(from), std::move(pred));
  }

  if (node.query_kind == QueryKind::kDelete) {
    if (!node.delete_cols.empty()) {
      std::vector<NamedScalar> projections;
      for (const auto& c : from->output) {
        if (std::find(node.delete_cols.begin(), node.delete_cols.end(),
                      c.name) != node.delete_cols.end()) {
          continue;
        }
        projections.push_back(NamedScalar{c, ColRefOf(c)});
      }
      return xtra::MakeProject(std::move(from), std::move(projections));
    }
    // delete-where: keep the rows where the conjunction is not true.
    if (conds.empty()) {
      return Unsupported("delete without where or columns is not supported");
    }
    ScalarPtr keep =
        MakeFunc("not", {Conjoin(std::move(conds))}, QType::kBool);
    return xtra::MakeFilter(std::move(from), std::move(keep));
  }

  if (node.query_kind == QueryKind::kUpdate && !node.by_list.empty()) {
    // Grouped update: aggregates become window functions partitioned by
    // the by-expressions (each group's aggregate is broadcast across its
    // rows — §3.3's window-function injection applied to update).
    if (!conds.empty()) {
      return Unsupported(
          "update ... by with a where clause is not yet translatable "
          "(partitions over the filtered subset have no direct window "
          "equivalent)");
    }
    XtraPtr src = std::move(from);
    std::vector<ScalarPtr> partition;
    for (const auto& ne : node.by_list) {
      HQ_ASSIGN_OR_RETURN(ScalarPtr key, BindScalar(ne.expr, src.get()));
      partition.push_back(std::move(key));
    }
    const XtraColumn* ordc =
        src->ord_col != kNoCol ? src->FindOutput(src->ord_col) : nullptr;

    // Bottom-up rewrite of aggregate nodes into partitioned windows.
    std::function<Result<ScalarPtr>(const ScalarPtr&)> to_window =
        [&](const ScalarPtr& e) -> Result<ScalarPtr> {
      auto copy = std::make_shared<ScalarExpr>(*e);
      for (auto& a : copy->args) {
        HQ_ASSIGN_OR_RETURN(a, to_window(a));
      }
      if (copy->kind != ScalarKind::kAgg) return ScalarPtr(copy);
      copy->kind = ScalarKind::kWindow;
      copy->partition_by = partition;
      if (copy->func == "first" || copy->func == "last") {
        if (ordc == nullptr) {
          return BindError(
              "first/last in update-by needs the implicit order column");
        }
        // last = first_value over the reversed order.
        bool ascending = copy->func == "first";
        copy->func = "first_value";
        copy->order_by.push_back({ColRefOf(*ordc), ascending});
      } else if (copy->func == "med" || copy->func == "dev" ||
                 copy->func == "var") {
        return Unsupported(StrCat("aggregate '", copy->func,
                                  "' has no window form in the backend"));
      }
      return ScalarPtr(copy);
    };

    std::vector<NamedScalar> projections;
    std::vector<std::pair<std::string, ScalarPtr>> new_cols;
    for (size_t i = 0; i < node.select_list.size(); ++i) {
      const NamedExpr& ne = node.select_list[i];
      std::string name = ne.name.empty()
                             ? InferName(ne.expr, static_cast<int>(i))
                             : ne.name;
      HQ_ASSIGN_OR_RETURN(ScalarPtr val, BindScalar(ne.expr, src.get()));
      HQ_ASSIGN_OR_RETURN(val, to_window(val));
      new_cols.emplace_back(name, std::move(val));
    }
    std::unordered_set<std::string_view> replaced;
    for (const auto& c : src->output) {
      auto it = std::find_if(new_cols.begin(), new_cols.end(),
                             [&](const auto& p) { return p.first == c.name; });
      if (it == new_cols.end()) {
        projections.push_back(NamedScalar{c, ColRefOf(c)});
      } else {
        replaced.insert(c.name);
        XtraColumn col{NextId(), c.name, it->second->type, true};
        projections.push_back(NamedScalar{col, it->second});
      }
    }
    for (auto& [name, val] : new_cols) {
      if (replaced.count(name) > 0) continue;
      XtraColumn col{NextId(), name, val->type, true};
      projections.push_back(NamedScalar{col, std::move(val)});
    }
    return xtra::MakeProject(std::move(src), std::move(projections));
  }

  if (node.query_kind == QueryKind::kUpdate) {
    // The where clause becomes a per-column CASE.
    XtraPtr src = std::move(from);
    ScalarPtr pred;
    if (!conds.empty()) pred = Conjoin(std::move(conds));
    std::vector<NamedScalar> projections;
    std::vector<std::pair<std::string, ScalarPtr>> new_cols;
    for (size_t i = 0; i < node.select_list.size(); ++i) {
      const NamedExpr& ne = node.select_list[i];
      std::string name = ne.name.empty()
                             ? InferName(ne.expr, static_cast<int>(i))
                             : ne.name;
      HQ_ASSIGN_OR_RETURN(ScalarPtr val, BindScalar(ne.expr, src.get()));
      new_cols.emplace_back(name, std::move(val));
    }
    std::unordered_set<std::string_view> replaced;
    for (const auto& c : src->output) {
      auto it = std::find_if(new_cols.begin(), new_cols.end(),
                             [&](const auto& p) { return p.first == c.name; });
      if (it == new_cols.end()) {
        projections.push_back(NamedScalar{c, ColRefOf(c)});
        continue;
      }
      replaced.insert(c.name);
      ScalarPtr val = it->second;
      if (pred) {
        auto cse = std::make_shared<ScalarExpr>();
        cse->kind = ScalarKind::kCase;
        cse->args = {pred, val, ColRefOf(c)};
        cse->has_else = true;
        cse->type = val->type;
        cse->nullable = true;
        val = cse;
      }
      XtraColumn col{NextId(), c.name, val->type, true};
      projections.push_back(NamedScalar{col, std::move(val)});
    }
    // Genuinely new columns.
    for (auto& [name, val] : new_cols) {
      if (replaced.count(name) > 0) continue;
      ScalarPtr v = val;
      if (pred) {
        auto cse = std::make_shared<ScalarExpr>();
        cse->kind = ScalarKind::kCase;
        cse->args = {pred, v, MakeConst(QValue::NullOf(v->type))};
        cse->has_else = true;
        cse->type = v->type;
        cse->nullable = true;
        v = cse;
      }
      XtraColumn col{NextId(), name, v->type, true};
      projections.push_back(NamedScalar{col, std::move(v)});
    }
    return xtra::MakeProject(std::move(src), std::move(projections));
  }

  // ---- select / exec ----
  // select[n] / select[n;>col] options are layered on the finished tree.
  auto apply_options = [&](XtraPtr tree) -> Result<XtraPtr> {
    if (node.query_order_dir != 0) {
      HQ_ASSIGN_OR_RETURN(
          XtraColumn c, FindCol(*tree, node.query_order_col, "select[..]"));
      tree = xtra::MakeSort(
          tree, {XtraSortKey{ColRefOf(c), node.query_order_dir > 0}});
    }
    if (!node.query_limit) return tree;
    HQ_ASSIGN_OR_RETURN(QValue nv, BindConstant(node.query_limit));
    if (!nv.is_atom() || !IsIntegralBacked(nv.type())) {
      return BindError("select[n] limit must be a constant integer");
    }
    int64_t n = nv.AsInt();
    if (n >= 0) {
      if (tree->kind != XtraKind::kSort && tree->ord_col != kNoCol) {
        const XtraColumn* oc = tree->FindOutput(tree->ord_col);
        tree = xtra::MakeSort(tree, {XtraSortKey{ColRefOf(*oc), true}});
      }
      return xtra::MakeLimit(std::move(tree), n, 0);
    }
    // Negative limit: last n rows — reverse the order, limit, restore.
    if (tree->kind == XtraKind::kSort || SortedByOtherKeys(*tree)) {
      if (XtraPtr tail = SortedTail(tree, -n)) return tail;
    }
    if (tree->ord_col == kNoCol) {
      return BindError(
          "select[-n] needs the implicit order column or an explicit "
          "ordering");
    }
    const XtraColumn* oc = tree->FindOutput(tree->ord_col);
    XtraPtr desc = xtra::MakeSort(tree, {XtraSortKey{ColRefOf(*oc), false}});
    XtraPtr limited = xtra::MakeLimit(std::move(desc), -n, 0);
    return xtra::MakeSort(std::move(limited),
                          {XtraSortKey{ColRefOf(*oc), true}});
  };

  std::vector<NamedScalar> keys;
  for (size_t i = 0; i < node.by_list.size(); ++i) {
    const NamedExpr& ne = node.by_list[i];
    std::string name = ne.name.empty()
                           ? InferName(ne.expr, static_cast<int>(i))
                           : ne.name;
    HQ_ASSIGN_OR_RETURN(ScalarPtr key, BindScalar(ne.expr, from.get()));
    XtraColumn col{NextId(), name, key->type, true};
    keys.push_back(NamedScalar{col, std::move(key)});
  }

  std::vector<NamedScalar> exprs;
  bool any_agg = false;
  bool all_agg = !node.select_list.empty();
  for (size_t i = 0; i < node.select_list.size(); ++i) {
    const NamedExpr& ne = node.select_list[i];
    std::string name = ne.name.empty()
                           ? InferName(ne.expr, static_cast<int>(i))
                           : ne.name;
    HQ_ASSIGN_OR_RETURN(ScalarPtr val, BindScalar(ne.expr, from.get()));
    bool is_agg = ContainsAggregate(val);
    any_agg |= is_agg;
    all_agg &= is_agg;
    XtraColumn col{NextId(), name, val->type, true};
    exprs.push_back(NamedScalar{col, std::move(val)});
  }

  if (!node.by_list.empty()) {
    if (node.select_list.empty()) {
      // `select by k from t`: last row per group.
      for (const auto& c : from->output) {
        bool is_key = false;
        for (const auto& k : keys) is_key |= k.col.name == c.name;
        if (is_key || c.id == from->ord_col) continue;
        XtraColumn col{NextId(), c.name, c.type, true};
        exprs.push_back(NamedScalar{
            col, MakeAgg("last", {ColRefOf(c)}, c.type)});
      }
    } else if (!all_agg) {
      return Unsupported(
          "select-by expressions must aggregate each group (nested list "
          "columns have no relational equivalent)");
    }
    XtraPtr agg = xtra::MakeGroupAgg(from, keys, std::move(exprs));
    // q orders grouped results by the key columns ascending.
    std::vector<XtraSortKey> sort;
    for (const auto& k : agg->group_keys) {
      sort.push_back({ColRefOf(k.col), true});
    }
    return apply_options(xtra::MakeSort(std::move(agg), std::move(sort)));
  }

  if (node.select_list.empty()) {
    return apply_options(from);  // select from t
  }

  if (any_agg) {
    if (!all_agg) {
      return Unsupported(
          "mixing aggregates and per-row expressions in one select is not "
          "translatable");
    }
    return xtra::MakeGroupAgg(std::move(from), {}, std::move(exprs));
  }

  // Per-row projection: pass the implicit order column through so the
  // Xformer can maintain Q ordering (§3.3). Over rows sorted by other
  // keys (xasc/xdesc) the projection keeps its input's order instead: a
  // final order by the order column would undo the sort.
  if (from->ord_col != kNoCol && !SortedByOtherKeys(*from)) {
    const XtraColumn* oc = from->FindOutput(from->ord_col);
    exprs.push_back(NamedScalar{*oc, ColRefOf(*oc)});
  }
  return apply_options(xtra::MakeProject(std::move(from), std::move(exprs)));
}

// ---------------------------------------------------------------------------
// Scalar expressions
// ---------------------------------------------------------------------------

Result<ScalarPtr> Binder::BindScalar(const AstPtr& node,
                                     const XtraOp* input) {
  switch (node->kind) {
    case AstKind::kLiteral:
      return MakeConst(node->literal);
    case AstKind::kVarRef: {
      if (input != nullptr) {
        const XtraColumn* c = input->FindOutputByName(node->name);
        if (c != nullptr) return ColRefOf(*c);
        // Virtual row-index column i maps to the implicit order column.
        if (node->name == "i" && input->ord_col != kNoCol) {
          const XtraColumn* oc = input->FindOutput(input->ord_col);
          return ColRefOf(*oc);
        }
      }
      Result<VarBinding> b = LookupVar(node->name);
      if (!b.ok()) {
        if (input != nullptr) {
          std::vector<std::string> names;
          for (const auto& c : input->output) names.push_back(c.name);
          return BindError(StrCat(
              "'", node->name,
              "' is neither a column of the input table (available: ",
              Join(names, ", "), ") nor a variable in any scope"));
        }
        return b.status();
      }
      if (b->kind == VarBinding::Kind::kScalar) {
        return MakeConst(b->scalar);
      }
      return BindError(StrCat("'", node->name,
                              "' cannot be used as a scalar here (bound to "
                              "a ",
                              b->kind == VarBinding::Kind::kRelation
                                  ? "table"
                                  : "function",
                              ")"));
    }
    case AstKind::kDyad:
      return BindDyadScalar(*node, input);
    case AstKind::kApply:
      return BindApplyScalar(*node, input);
    case AstKind::kCond: {
      auto cse = std::make_shared<ScalarExpr>();
      cse->kind = ScalarKind::kCase;
      for (const auto& b : node->args) {
        HQ_ASSIGN_OR_RETURN(ScalarPtr e, BindScalar(b, input));
        cse->args.push_back(std::move(e));
      }
      cse->has_else = node->args.size() % 2 == 1;
      cse->type = cse->args.size() > 1 ? cse->args[1]->type : QType::kUnary;
      cse->nullable = true;
      return ScalarPtr(cse);
    }
    default:
      return BindError(StrCat(
          "q construct at ", node->loc.line, ":", node->loc.column,
          " has no scalar SQL translation yet"));
  }
}

Result<ScalarPtr> Binder::MakeOrderedWindow(const std::string& func,
                                            std::vector<ScalarPtr> args,
                                            const XtraOp* input, QType type,
                                            bool has_frame,
                                            int64_t frame_preceding) {
  if (input == nullptr || input->ord_col == kNoCol) {
    return BindError(StrCat(
        "'", func,
        "' needs the table's implicit order column (ordcol) to express "
        "ordered semantics in SQL; the input table does not provide one"));
  }
  const XtraColumn* oc = input->FindOutput(input->ord_col);
  auto w = std::make_shared<ScalarExpr>();
  w->kind = ScalarKind::kWindow;
  w->func = func;
  w->args = std::move(args);
  w->order_by.push_back({ColRefOf(*oc), true});
  w->type = type;
  w->nullable = true;
  w->has_frame = has_frame;
  w->frame_preceding = frame_preceding;
  return ScalarPtr(w);
}

Result<ScalarPtr> Binder::BindDyadScalar(const AstNode& node,
                                         const XtraOp* input) {
  const std::string& op = node.name;

  // Operators with special right-hand sides.
  if (op == "$") {
    HQ_ASSIGN_OR_RETURN(QValue target, BindConstant(node.lhs));
    if (!target.is_atom() || target.type() != QType::kSymbol) {
      return BindError("cast ($) requires a literal type-name symbol");
    }
    HQ_ASSIGN_OR_RETURN(ScalarPtr arg, BindScalar(node.rhs, input));
    const std::string& t = target.AsSym();
    QType to;
    if (t.empty() || t == "symbol") {
      to = QType::kSymbol;
    } else if (t == "long" || t == "j") {
      to = QType::kLong;
    } else if (t == "int" || t == "i") {
      to = QType::kInt;
    } else if (t == "short" || t == "h") {
      to = QType::kShort;
    } else if (t == "float" || t == "f") {
      to = QType::kFloat;
    } else if (t == "real" || t == "e") {
      to = QType::kReal;
    } else if (t == "boolean" || t == "b") {
      to = QType::kBool;
    } else if (t == "date" || t == "d") {
      to = QType::kDate;
    } else if (t == "time" || t == "t") {
      to = QType::kTime;
    } else if (t == "timestamp" || t == "p") {
      to = QType::kTimestamp;
    } else if (t == "string" || t == "c" || t == "char") {
      to = QType::kChar;
    } else {
      return BindError(StrCat("cast to `", t, " is not translatable"));
    }
    return MakeCast(std::move(arg), to);
  }

  if (op == "in") {
    HQ_ASSIGN_OR_RETURN(ScalarPtr lhs, BindScalar(node.lhs, input));
    HQ_ASSIGN_OR_RETURN(ScalarPtr rhs, BindScalar(node.rhs, input));
    if (rhs->kind != ScalarKind::kConst) {
      return Unsupported(
          "in: only membership against constant lists is translatable");
    }
    if (rhs->value.is_atom()) {
      return MakeFunc("eq", {lhs, rhs}, QType::kBool);
    }
    return MakeFunc("in", {std::move(lhs), std::move(rhs)}, QType::kBool);
  }

  if (op == "within") {
    HQ_ASSIGN_OR_RETURN(ScalarPtr x, BindScalar(node.lhs, input));
    HQ_ASSIGN_OR_RETURN(QValue range, BindConstant(node.rhs));
    if (range.is_atom() || range.Count() != 2) {
      return BindError("within requires a constant 2-element range");
    }
    return MakeFunc("between",
                    {std::move(x), MakeConst(range.ElementAt(0)),
                     MakeConst(range.ElementAt(1))},
                    QType::kBool);
  }

  if (op == "like") {
    HQ_ASSIGN_OR_RETURN(ScalarPtr x, BindScalar(node.lhs, input));
    HQ_ASSIGN_OR_RETURN(QValue pat, BindConstant(node.rhs));
    if (pat.type() != QType::kChar) {
      return BindError("like requires a constant string pattern");
    }
    // Translate q glob wildcards to SQL LIKE wildcards.
    std::string q = pat.is_atom() ? std::string(1, pat.AsChar())
                                  : pat.CharsView();
    std::string sql;
    for (char c : q) {
      if (c == '*') {
        sql.push_back('%');
      } else if (c == '?') {
        sql.push_back('_');
      } else {
        sql.push_back(c);
      }
    }
    return MakeFunc("like", {std::move(x), MakeConst(QValue::Chars(sql))},
                    QType::kBool);
  }

  if (op == "mavg" || op == "msum" || op == "mmax" || op == "mmin") {
    HQ_ASSIGN_OR_RETURN(QValue n, BindConstant(node.lhs));
    if (!n.is_atom() || !IsIntegralBacked(n.type())) {
      return BindError(StrCat(op, " requires a constant integer window"));
    }
    HQ_ASSIGN_OR_RETURN(ScalarPtr x, BindScalar(node.rhs, input));
    std::string wf = op == "mavg" ? "avg"
                     : op == "msum" ? "sum"
                     : op == "mmax" ? "max"
                                    : "min";
    QType t = op == "mavg" ? QType::kFloat : x->type;
    return MakeOrderedWindow(wf, {std::move(x)}, input, t,
                             /*has_frame=*/true,
                             /*frame_preceding=*/n.AsInt() - 1);
  }

  if (op == "xprev") {
    HQ_ASSIGN_OR_RETURN(QValue n, BindConstant(node.lhs));
    HQ_ASSIGN_OR_RETURN(ScalarPtr x, BindScalar(node.rhs, input));
    QType t = x->type;
    return MakeOrderedWindow("lag",
                             {std::move(x), MakeConst(QValue::Long(n.AsInt()))},
                             input, t);
  }

  if (op == "fby") {
    // (agg; values) fby group: the aggregate over `values` within each
    // group of `group`, broadcast to every row — a window function.
    if (node.lhs->kind != AstKind::kListLit || node.lhs->args.size() != 2 ||
        (node.lhs->args[0]->kind != AstKind::kVarRef &&
         node.lhs->args[0]->kind != AstKind::kFnRef)) {
      return BindError(
          "fby: left argument must be (aggregate; values) with a named "
          "aggregate");
    }
    const std::string& agg = node.lhs->args[0]->name;
    static const std::set<std::string> kWindowable = {
        "sum", "avg", "min", "max", "count", "first", "last"};
    if (kWindowable.count(agg) == 0) {
      return Unsupported(StrCat("fby: aggregate '", agg,
                                "' has no window form in the backend"));
    }
    HQ_ASSIGN_OR_RETURN(ScalarPtr values,
                        BindScalar(node.lhs->args[1], input));
    HQ_ASSIGN_OR_RETURN(ScalarPtr group, BindScalar(node.rhs, input));
    auto w = std::make_shared<ScalarExpr>();
    w->kind = ScalarKind::kWindow;
    w->func = agg;
    w->args.push_back(values);
    w->partition_by.push_back(std::move(group));
    w->type = DeriveFuncType(agg, {values});
    w->nullable = true;
    if (agg == "first" || agg == "last") {
      if (input == nullptr || input->ord_col == kNoCol) {
        return BindError("fby first/last needs the implicit order column");
      }
      const XtraColumn* oc = input->FindOutput(input->ord_col);
      w->func = "first_value";
      w->order_by.push_back({ColRefOf(*oc), agg == "first"});
    }
    return ScalarPtr(w);
  }

  if (op == "cov" || op == "cor") {
    // Population covariance/correlation expand into aggregate arithmetic:
    //   cov(x,y) = avg(x*y) - avg(x)*avg(y)
    //   cor(x,y) = cov(x,y) / (dev(x)*dev(y))
    HQ_ASSIGN_OR_RETURN(ScalarPtr x, BindScalar(node.lhs, input));
    HQ_ASSIGN_OR_RETURN(ScalarPtr y, BindScalar(node.rhs, input));
    ScalarPtr xy = MakeFunc("mul", {x, y}, QType::kFloat);
    ScalarPtr cov = MakeFunc(
        "sub",
        {MakeAgg("avg", {std::move(xy)}, QType::kFloat),
         MakeFunc("mul",
                  {MakeAgg("avg", {x}, QType::kFloat),
                   MakeAgg("avg", {y}, QType::kFloat)},
                  QType::kFloat)},
        QType::kFloat);
    if (op == "cov") return cov;
    ScalarPtr denom = MakeFunc("mul",
                               {MakeAgg("dev", {x}, QType::kFloat),
                                MakeAgg("dev", {y}, QType::kFloat)},
                               QType::kFloat);
    return MakeFunc("fdiv", {std::move(cov), std::move(denom)},
                    QType::kFloat);
  }

  if (op == "wavg" || op == "wsum") {
    HQ_ASSIGN_OR_RETURN(ScalarPtr w, BindScalar(node.lhs, input));
    HQ_ASSIGN_OR_RETURN(ScalarPtr x, BindScalar(node.rhs, input));
    ScalarPtr wx = MakeFunc("mul", {w, x}, QType::kFloat);
    ScalarPtr swx = MakeAgg("sum", {std::move(wx)}, QType::kFloat);
    if (op == "wsum") return swx;
    ScalarPtr sw = MakeAgg("sum", {w}, QType::kFloat);
    return MakeFunc("fdiv", {std::move(swx), std::move(sw)}, QType::kFloat);
  }

  // Generic dyads: bind both sides (right first, as q would evaluate).
  HQ_ASSIGN_OR_RETURN(ScalarPtr rhs, BindScalar(node.rhs, input));
  HQ_ASSIGN_OR_RETURN(ScalarPtr lhs, BindScalar(node.lhs, input));

  std::string func;
  if (op == "+") {
    func = "add";
  } else if (op == "-") {
    func = "sub";
  } else if (op == "*") {
    func = "mul";
  } else if (op == "%") {
    func = "fdiv";
  } else if (op == "=") {
    func = "eq";
  } else if (op == "<>") {
    func = "ne";
  } else if (op == "<") {
    func = "lt";
  } else if (op == ">") {
    func = "gt";
  } else if (op == "<=") {
    func = "le";
  } else if (op == ">=") {
    func = "ge";
  } else if (op == "~") {
    func = "eq_ind";
  } else if (op == "&" || op == "and") {
    func = lhs->type == QType::kBool && rhs->type == QType::kBool
               ? "and"
               : "least";
  } else if (op == "|" || op == "or") {
    func = lhs->type == QType::kBool && rhs->type == QType::kBool
               ? "or"
               : "greatest";
  } else if (op == "mod") {
    func = "mod";
  } else if (op == "div") {
    func = "idiv";
  } else if (op == "xbar") {
    func = "xbar";
  } else if (op == "^") {
    // x^y fills nulls in y with x.
    return MakeFunc("coalesce", {std::move(rhs), std::move(lhs)},
                    DeriveFuncType("coalesce", {rhs, lhs}));
  } else if (op == ",") {
    if (lhs->type == QType::kChar && rhs->type == QType::kChar) {
      func = "concat";
    } else {
      return Unsupported(
          "',' (join) is only translatable for string concatenation in "
          "scalar contexts");
    }
  } else {
    return Unsupported(StrCat("dyadic '", op,
                              "' has no scalar SQL translation yet"));
  }
  std::vector<ScalarPtr> args{std::move(lhs), std::move(rhs)};
  QType t = DeriveFuncType(func, args);
  return MakeFunc(std::move(func), std::move(args), t);
}

Result<ScalarPtr> Binder::BindApplyScalar(const AstNode& node,
                                          const XtraOp* input) {
  const AstPtr& callee = node.child;
  if (callee->kind == AstKind::kVarRef || callee->kind == AstKind::kFnRef) {
    // Shadowing check: a user variable beats the builtin.
    if (callee->kind == AstKind::kVarRef && input != nullptr &&
        input->FindOutputByName(callee->name) != nullptr) {
      // Column used as function -> indexing; not translatable.
      return Unsupported(StrCat("indexing column '", callee->name,
                                "' is not translatable in scalar context"));
    }
    return BindNamedCall(callee->name, node.args, input, node.loc);
  }
  return Unsupported(
      "only named function applications are translatable in scalar "
      "contexts; lambdas are unrolled at statement level");
}

Result<ScalarPtr> Binder::BindNamedCall(const std::string& name,
                                        const std::vector<AstPtr>& args,
                                        const XtraOp* input, SourceLoc loc) {
  auto bind_args = [&]() -> Result<std::vector<ScalarPtr>> {
    std::vector<ScalarPtr> out;
    for (const auto& a : args) {
      HQ_ASSIGN_OR_RETURN(ScalarPtr e, BindScalar(a, input));
      out.push_back(std::move(e));
    }
    return out;
  };

  if (name == "?") {
    // Vector conditional ?[c;a;b] maps to CASE WHEN c THEN a ELSE b END.
    if (args.size() != 3) {
      return BindError("?[c;a;b] takes exactly 3 arguments");
    }
    HQ_ASSIGN_OR_RETURN(std::vector<ScalarPtr> a, bind_args());
    auto cse = std::make_shared<ScalarExpr>();
    cse->kind = ScalarKind::kCase;
    cse->args = {a[0], a[1], a[2]};
    cse->has_else = true;
    cse->type = a[1]->type;
    cse->nullable = a[1]->nullable || a[2]->nullable;
    return ScalarPtr(cse);
  }

  if (IsAggName(name)) {
    if (args.size() != 1) {
      return BindError(StrCat(name, " takes exactly one argument"));
    }
    HQ_ASSIGN_OR_RETURN(std::vector<ScalarPtr> a, bind_args());
    QType t = DeriveFuncType(name, a);
    if (name == "count") {
      // Q `count` is list length: per group that is the group size,
      // nulls included. SQL COUNT(col) skips NULLs, so lower to
      // COUNT(*) instead (the argument only establishes the grouping
      // context, it never changes the answer).
      return MakeAgg("count_star", {}, QType::kLong);
    }
    return MakeAgg(name, std::move(a), t);
  }

  static const std::set<std::string> kScalarFuncs = {
      "neg",    "abs",  "sqrt", "exp",    "log",   "floor",
      "ceiling", "signum", "not", "upper", "lower"};
  if (kScalarFuncs.count(name) > 0) {
    if (args.size() != 1) {
      return BindError(StrCat(name, " takes exactly one argument"));
    }
    HQ_ASSIGN_OR_RETURN(std::vector<ScalarPtr> a, bind_args());
    QType t = name == "upper" || name == "lower" ? a[0]->type
                                                 : DeriveFuncType(name, a);
    return MakeFunc(name, std::move(a), t);
  }
  if (name == "null") {
    HQ_ASSIGN_OR_RETURN(std::vector<ScalarPtr> a, bind_args());
    return MakeFunc("isnull", std::move(a), QType::kBool);
  }
  if (name == "string") {
    HQ_ASSIGN_OR_RETURN(std::vector<ScalarPtr> a, bind_args());
    return MakeCast(a[0], QType::kChar);
  }

  // Ordered vector functions lower to window functions over ordcol (§3.3:
  // the Xformer/binder inject window functions to realize implicit order).
  if (name == "prev" || name == "next") {
    HQ_ASSIGN_OR_RETURN(std::vector<ScalarPtr> a, bind_args());
    QType t = a[0]->type;
    return MakeOrderedWindow(name == "prev" ? "lag" : "lead", std::move(a),
                             input, t);
  }
  if (name == "sums" || name == "mins" || name == "maxs") {
    HQ_ASSIGN_OR_RETURN(std::vector<ScalarPtr> a, bind_args());
    QType t = a[0]->type;
    std::string wf = name == "sums" ? "sum" : (name == "mins" ? "min" : "max");
    return MakeOrderedWindow(wf, std::move(a), input, t);
  }
  if (name == "deltas") {
    HQ_ASSIGN_OR_RETURN(std::vector<ScalarPtr> a, bind_args());
    ScalarPtr x = a[0];
    QType t = x->type;
    HQ_ASSIGN_OR_RETURN(ScalarPtr lagged,
                        MakeOrderedWindow("lag", {x}, input, t));
    // First element passes through: x - coalesce(lag(x), 0).
    ScalarPtr filled = MakeFunc(
        "coalesce", {std::move(lagged), MakeConst(QValue::Long(0))}, t);
    ScalarPtr sub = MakeFunc("sub", {x, std::move(filled)},
                             DeriveFuncType("sub", {x, filled}));
    // Q `deltas` over temporal lists yields plain counts (longs), but the
    // backend keeps temporal-minus-scalar temporal; cast to line up.
    if (IsTemporal(t)) return MakeCast(std::move(sub), QType::kLong);
    return sub;
  }
  if (name == "ratios") {
    HQ_ASSIGN_OR_RETURN(std::vector<ScalarPtr> a, bind_args());
    ScalarPtr x = a[0];
    HQ_ASSIGN_OR_RETURN(ScalarPtr lagged,
                        MakeOrderedWindow("lag", {x}, input, x->type));
    return MakeFunc("fdiv", {x, std::move(lagged)}, QType::kFloat);
  }

  return Unsupported(StrCat(
      "function '", name, "' at ", loc.line, ":", loc.column,
      " has no SQL translation yet (nyi); supported here: aggregates, "
      "arithmetic, comparisons and ordered vector functions"));
}

}  // namespace hyperq
