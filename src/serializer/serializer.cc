#include "serializer/serializer.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "common/strings.h"
#include "qval/temporal.h"

namespace hyperq {

using xtra::ColId;
using xtra::kNoCol;
using xtra::ScalarExpr;
using xtra::ScalarKind;
using xtra::ScalarPtr;
using xtra::XtraKind;
using xtra::XtraOp;
using xtra::XtraPtr;

namespace {

const char* AggSqlName(const std::string& f) {
  if (f == "count") return "COUNT";
  if (f == "count_star") return "COUNT";
  if (f == "sum") return "SUM";
  if (f == "avg") return "AVG";
  if (f == "min") return "MIN";
  if (f == "max") return "MAX";
  if (f == "med") return "MEDIAN";
  if (f == "dev") return "STDDEV_POP";
  if (f == "var") return "VAR_POP";
  if (f == "first") return "FIRST";
  if (f == "last") return "LAST";
  return nullptr;
}

/// Alias of the one wrapper left: `SELECT * FROM (...) AS hq_final ORDER BY
/// "ordcol"` restores q order over a root that cannot take an ORDER BY.
constexpr char kFinalWrapperAlias[] = "hq_final";

const char* WindowSqlName(const std::string& f) {
  if (f == "lag") return "LAG";
  if (f == "lead") return "LEAD";
  if (f == "row_number") return "ROW_NUMBER";
  if (f == "sum") return "SUM";
  if (f == "avg") return "AVG";
  if (f == "min") return "MIN";
  if (f == "max") return "MAX";
  if (f == "count") return "COUNT";
  if (f == "count_star") return "COUNT";
  if (f == "first_value") return "FIRST_VALUE";
  if (f == "last_value") return "LAST_VALUE";
  return nullptr;
}

}  // namespace

const char* Serializer::SqlTypeNameFor(QType type) {
  switch (type) {
    case QType::kBool:
      return "boolean";
    case QType::kByte:
    case QType::kShort:
      return "smallint";
    case QType::kInt:
      return "integer";
    case QType::kLong:
      return "bigint";
    case QType::kReal:
      return "real";
    case QType::kFloat:
      return "double precision";
    case QType::kChar:
      return "text";
    case QType::kSymbol:
      return "varchar";
    case QType::kDate:
      return "date";
    case QType::kTime:
      return "time";
    case QType::kTimestamp:
      return "timestamp";
    case QType::kTimespan:
      return "bigint";
    default:
      return "text";
  }
}

std::string Serializer::QuoteIdent(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

std::string Serializer::QuoteLiteral(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

Result<std::string> Serializer::RenderConstant(const QValue& v) {
  if (!v.is_atom()) {
    // A char list is a q string: it renders as a text literal.
    if (v.type() == QType::kChar) {
      return StrCat(QuoteLiteral(v.CharsView()), "::text");
    }
    return Unsupported(
        "list constants can only appear on the right of 'in'");
  }
  if (v.IsNullAtom()) {
    return StrCat("CAST(NULL AS ", SqlTypeNameFor(v.type()), ")");
  }
  switch (v.type()) {
    case QType::kBool:
      return std::string(v.AsInt() ? "TRUE" : "FALSE");
    case QType::kByte:
    case QType::kShort:
    case QType::kInt:
    case QType::kLong:
      return StrCat(v.AsInt());
    case QType::kReal:
    case QType::kFloat: {
      double d = v.AsFloat();
      if (std::isinf(d)) {
        return std::string(d > 0 ? "1.7976931348623157e308"
                                 : "-1.7976931348623157e308");
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      std::string s = buf;
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos) {
        s += ".0";  // keep it a float literal
      }
      return s;
    }
    case QType::kChar:
      return StrCat(QuoteLiteral(std::string(1, v.AsChar())), "::text");
    case QType::kSymbol:
      return StrCat(QuoteLiteral(v.AsSym()), "::varchar");
    case QType::kDate:
      return StrCat("DATE ", QuoteLiteral(FormatIsoDate(v.AsInt())));
    case QType::kTime:
      return StrCat("TIME ", QuoteLiteral(FormatIsoTime(v.AsInt())));
    case QType::kTimestamp:
      return StrCat("TIMESTAMP ",
                    QuoteLiteral(FormatIsoTimestamp(v.AsInt())));
    case QType::kTimespan:
      return StrCat(v.AsInt());
    default:
      return Unsupported(StrCat("cannot serialize a ",
                                QTypeName(v.type()), " constant to SQL"));
  }
}

Result<std::string> Serializer::RenderScalar(
    const ScalarPtr& e, const std::map<ColId, std::string>& cols,
    bool zero_sums) {
  std::function<Result<std::string>(const ScalarPtr&)> render =
      [&](const ScalarPtr& node) -> Result<std::string> {
    switch (node->kind) {
      case ScalarKind::kConst: {
        return RenderConstant(node->value);
      }
      case ScalarKind::kColRef: {
        auto c = cols.find(node->col);
        if (c != cols.end()) return c->second;
        return InternalError(StrCat("serializer: column id ", node->col,
                                    " ('", node->col_name,
                                    "') not found in scope"));
      }
      case ScalarKind::kCast: {
        HQ_ASSIGN_OR_RETURN(std::string arg, render(node->args[0]));
        return StrCat("CAST(", arg, " AS ", SqlTypeNameFor(node->cast_to),
                      ")");
      }
      case ScalarKind::kCase: {
        size_t pairs =
            node->has_else ? (node->args.size() - 1) / 2 : node->args.size() / 2;
        std::string out = "CASE";
        for (size_t i = 0; i < pairs; ++i) {
          HQ_ASSIGN_OR_RETURN(std::string c, render(node->args[2 * i]));
          HQ_ASSIGN_OR_RETURN(std::string v, render(node->args[2 * i + 1]));
          out += StrCat(" WHEN ", c, " THEN ", v);
        }
        if (node->has_else) {
          HQ_ASSIGN_OR_RETURN(std::string els, render(node->args.back()));
          out += StrCat(" ELSE ", els);
        }
        return out + " END";
      }
      case ScalarKind::kAgg: {
        const char* name = AggSqlName(node->func);
        if (name == nullptr) {
          return Unsupported(StrCat("serializer: aggregate '", node->func,
                                    "' has no SQL spelling"));
        }
        if (node->func == "count_star") return StrCat(name, "(*)");
        std::vector<std::string> args;
        args.reserve(node->args.size());
        for (const auto& a : node->args) {
          HQ_ASSIGN_OR_RETURN(std::string s, render(a));
          args.push_back(std::move(s));
        }
        std::string out = StrCat(name, "(", node->distinct ? "DISTINCT " : "",
                                 Join(args, ", "), ")");
        if (zero_sums && node->func == "sum") {
          return StrCat("COALESCE(", out,
                        IsFloatBacked(node->type) ? ", 0.0)" : ", 0)");
        }
        return out;
      }
      case ScalarKind::kWindow: {
        const char* name = WindowSqlName(node->func);
        if (name == nullptr) {
          return Unsupported(StrCat("serializer: window function '",
                                    node->func, "' has no SQL spelling"));
        }
        std::vector<std::string> args;
        args.reserve(node->args.size());
        for (const auto& a : node->args) {
          HQ_ASSIGN_OR_RETURN(std::string s, render(a));
          args.push_back(std::move(s));
        }
        std::string out =
            node->func == "count_star"
                ? StrCat(name, "(*) OVER (")
                : StrCat(name, "(", Join(args, ", "), ") OVER (");
        bool space = false;
        if (!node->partition_by.empty()) {
          std::vector<std::string> parts;
          for (const auto& p : node->partition_by) {
            HQ_ASSIGN_OR_RETURN(std::string s, render(p));
            parts.push_back(std::move(s));
          }
          out += StrCat("PARTITION BY ", Join(parts, ", "));
          space = true;
        }
        if (!node->order_by.empty()) {
          std::vector<std::string> keys;
          for (const auto& [o, asc] : node->order_by) {
            HQ_ASSIGN_OR_RETURN(std::string s, render(o));
            keys.push_back(StrCat(s, asc ? "" : " DESC"));
          }
          out += StrCat(space ? " " : "", "ORDER BY ", Join(keys, ", "));
          space = true;
        }
        if (node->has_frame) {
          out += StrCat(space ? " " : "", "ROWS BETWEEN ",
                        node->frame_preceding,
                        " PRECEDING AND CURRENT ROW");
        }
        return out + ")";
      }
      case ScalarKind::kFunc: {
        const std::string& f = node->func;
        if (f == "in") {
          // args[1] is a constant list, expanded inline rather than
          // rendered as a scalar constant.
          HQ_ASSIGN_OR_RETURN(std::string lhs, render(node->args[0]));
          const QValue& list = node->args[1]->value;
          std::vector<std::string> items;
          items.reserve(list.Count());
          for (size_t i = 0; i < list.Count(); ++i) {
            HQ_ASSIGN_OR_RETURN(std::string item,
                                RenderConstant(list.ElementAt(i)));
            items.push_back(std::move(item));
          }
          if (items.empty()) return std::string("FALSE");
          return StrCat("(", lhs, " IN (", Join(items, ", "), "))");
        }
        std::vector<std::string> a;
        a.reserve(node->args.size());
        for (const auto& arg : node->args) {
          HQ_ASSIGN_OR_RETURN(std::string s, render(arg));
          a.push_back(std::move(s));
        }
        auto infix = [&](const char* op) {
          return StrCat("(", a[0], " ", op, " ", a[1], ")");
        };
        auto call = [&](const char* nm) {
          return StrCat(nm, "(", Join(a, ", "), ")");
        };
        if (f == "add") return infix("+");
        if (f == "sub") return infix("-");
        if (f == "mul") return infix("*");
        if (f == "fdiv") {
          return StrCat("(CAST(", a[0], " AS double precision) / ", a[1],
                        ")");
        }
        if (f == "idiv") {
          return StrCat("CAST(FLOOR(CAST(", a[0],
                        " AS double precision) / ", a[1], ") AS bigint)");
        }
        if (f == "mod") return call("MOD");
        if (f == "xbar") {
          return StrCat("(", a[0], " * CAST(FLOOR(CAST(", a[1],
                        " AS double precision) / ", a[0],
                        ") AS bigint))");
        }
        if (f == "eq") return infix("=");
        if (f == "ne") return infix("<>");
        if (f == "lt") return infix("<");
        if (f == "gt") return infix(">");
        if (f == "le") return infix("<=");
        if (f == "ge") return infix(">=");
        if (f == "eq_ind") return infix("IS NOT DISTINCT FROM");
        if (f == "ne_ind") return infix("IS DISTINCT FROM");
        // Null-aware ordered comparisons: q totally orders values with
        // null smallest, so a null operand must yield a definite boolean
        // instead of SQL's NULL. COALESCE supplies the null-vs-null and
        // null-vs-value verdicts the plain comparison leaves undefined.
        if (f == "lt_ind") {
          return StrCat("COALESCE((", a[0], " < ", a[1], "), ((", a[0],
                        " IS NULL) AND (", a[1], " IS NOT NULL)))");
        }
        if (f == "gt_ind") {
          return StrCat("COALESCE((", a[0], " > ", a[1], "), ((", a[1],
                        " IS NULL) AND (", a[0], " IS NOT NULL)))");
        }
        if (f == "le_ind") {
          return StrCat("COALESCE((", a[0], " <= ", a[1], "), (", a[0],
                        " IS NULL))");
        }
        if (f == "ge_ind") {
          return StrCat("COALESCE((", a[0], " >= ", a[1], "), (", a[1],
                        " IS NULL))");
        }
        if (f == "and") return infix("AND");
        if (f == "or") return infix("OR");
        if (f == "not") return StrCat("(NOT ", a[0], ")");
        if (f == "isnull") return StrCat("(", a[0], " IS NULL)");
        if (f == "notnull") return StrCat("(", a[0], " IS NOT NULL)");
        if (f == "least") return call("LEAST");
        if (f == "greatest") return call("GREATEST");
        if (f == "coalesce") return call("COALESCE");
        if (f == "between") {
          return StrCat("(", a[0], " BETWEEN ", a[1], " AND ", a[2], ")");
        }
        if (f == "like") return infix("LIKE");
        if (f == "neg") return StrCat("(-", a[0], ")");
        if (f == "abs") return call("ABS");
        if (f == "sqrt") return call("SQRT");
        if (f == "exp") return call("EXP");
        if (f == "log") return call("LN");
        if (f == "floor") return StrCat("CAST(FLOOR(", a[0], ") AS bigint)");
        if (f == "ceiling") {
          return StrCat("CAST(CEIL(", a[0], ") AS bigint)");
        }
        if (f == "signum") return call("SIGN");
        if (f == "upper") return call("UPPER");
        if (f == "lower") return call("LOWER");
        if (f == "concat") return infix("||");
        return Unsupported(StrCat("serializer: scalar function '", f,
                                  "' has no SQL spelling"));
      }
    }
    return InternalError("unhandled scalar kind in serializer");
  };
  return render(e);
}

void Serializer::Block::Add(ColId id, std::string expr,
                            const std::string& name) {
  cols[id] = expr;
  items.push_back(Item{id, std::move(expr), name});
}

const std::string* Serializer::Block::NameOf(ColId id) const {
  for (const auto& it : items) {
    if (it.id == id) return &it.name;
  }
  return nullptr;
}

bool Serializer::Block::Unique(const std::string& name) const {
  int uses = 0;
  for (const auto& it : items) uses += it.name == name ? 1 : 0;
  return uses == 1;
}

bool Serializer::Block::Ordered() const {
  return !order_by.empty() || limit >= 0 || offset > 0;
}

bool Serializer::Block::Open() const {
  return union_all.empty() && !distinct && !aggregate && !window &&
         !computed && !Ordered();
}

std::string Serializer::Block::Sql() const {
  if (!union_all.empty()) return union_all;
  std::string out = distinct ? "SELECT DISTINCT " : "SELECT ";
  if (items.empty()) out += "*";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].expr;
    std::string name = QuoteIdent(items[i].name);
    if (items[i].expr != name) {
      out += " AS ";
      out += name;
    }
  }
  auto clause = [&out](const char* keyword, const std::string& body) {
    if (body.empty()) return;
    out += keyword;
    out += body;
  };
  clause(" FROM ", from);
  clause(" WHERE ", where);
  clause(" GROUP BY ", Join(group_by, ", "));
  clause(" ORDER BY ", Join(order_by, ", "));
  if (limit >= 0) clause(" LIMIT ", std::to_string(limit));
  if (offset > 0) clause(" OFFSET ", std::to_string(offset));
  return out;
}

Serializer::Block Serializer::Derived(const Block& b) {
  const std::string alias = StrCat("t", next_alias_++);
  Block out;
  out.from = StrCat("(", b.Sql(), ") AS ", alias);
  for (const auto& it : b.items) {
    out.Add(it.id, alias + "." + QuoteIdent(it.name), it.name);
  }
  return out;
}

namespace {

bool Contains(const ScalarPtr& e, ScalarKind kind) {
  if (e == nullptr) return false;
  if (e->kind == kind) return true;
  for (const auto& a : e->args) {
    if (Contains(a, kind)) return true;
  }
  for (const auto& p : e->partition_by) {
    if (Contains(p, kind)) return true;
  }
  for (const auto& o : e->order_by) {
    if (Contains(o.first, kind)) return true;
  }
  return false;
}

}  // namespace

Result<Serializer::Block> Serializer::Render(const XtraPtr& op) {
  switch (op->kind) {
    case XtraKind::kGet: {
      Block out;
      out.from = QuoteIdent(op->table);
      for (const auto& c : op->output) {
        out.Add(c.id, QuoteIdent(c.name), c.name);
      }
      return out;
    }

    case XtraKind::kFilter: {
      // Filter, Sort and Limit output their child's columns, so the items
      // of the block they land in stay as they are.
      HQ_ASSIGN_OR_RETURN(Block b, Render(op->children[0]));
      if (!b.Open()) b = Derived(b);
      HQ_ASSIGN_OR_RETURN(std::string pred,
                          RenderScalar(op->predicate, b.cols));
      b.where = b.where.empty() ? std::move(pred)
                                : StrCat(b.where, " AND ", pred);
      return b;
    }

    case XtraKind::kProject: {
      Block b;
      bool rename = false;
      if (!op->children.empty()) {
        HQ_ASSIGN_OR_RETURN(b, Render(op->children[0]));
        // A pure rename keeps the child's expressions, so it also merges
        // over aggregates and windows.
        rename = !op->distinct && b.union_all.empty() && !b.distinct &&
                 !b.Ordered();
        for (const auto& p : op->projections) {
          rename = rename && p.expr->kind == ScalarKind::kColRef &&
                   b.cols.count(p.expr->col) != 0;
        }
        if (!rename && !b.Open()) b = Derived(b);
      }
      std::map<ColId, std::string> scope = std::move(b.cols);
      b.cols.clear();
      b.items.clear();
      for (const auto& p : op->projections) {
        HQ_ASSIGN_OR_RETURN(std::string expr, RenderScalar(p.expr, scope));
        b.Add(p.col.id, std::move(expr), p.col.name);
        b.aggregate = b.aggregate || Contains(p.expr, ScalarKind::kAgg);
        b.window = b.window || Contains(p.expr, ScalarKind::kWindow);
        b.computed = b.computed || p.expr->kind != ScalarKind::kColRef;
      }
      b.distinct = op->distinct;
      return b;
    }

    case XtraKind::kJoin: {
      HQ_ASSIGN_OR_RETURN(Block left, Render(op->children[0]));
      HQ_ASSIGN_OR_RETURN(Block right, Render(op->children[1]));
      Block l = Derived(left);
      Block r = Derived(right);
      std::map<ColId, std::string> scope = std::move(l.cols);
      scope.insert(r.cols.begin(), r.cols.end());
      HQ_ASSIGN_OR_RETURN(std::string cond,
                          RenderScalar(op->predicate, scope));
      const char* join_kw = op->join_kind == xtra::XtraJoinKind::kLeftOuter
                                ? "LEFT JOIN"
                                : "JOIN";
      Block out;
      out.from = StrCat(l.from, " ", join_kw, " ", r.from, " ON ", cond);
      for (const auto& c : op->output) {
        auto it = scope.find(c.id);
        if (it == scope.end()) {
          return InternalError(StrCat("join output column ", c.id,
                                      " not produced by either child"));
        }
        out.Add(c.id, it->second, c.name);
      }
      return out;
    }

    case XtraKind::kGroupAgg: {
      HQ_ASSIGN_OR_RETURN(Block b, Render(op->children[0]));
      if (!b.Open()) b = Derived(b);
      std::map<ColId, std::string> scope = std::move(b.cols);
      b.cols.clear();
      b.items.clear();
      for (const auto& k : op->group_keys) {
        HQ_ASSIGN_OR_RETURN(std::string expr, RenderScalar(k.expr, scope));
        b.group_by.push_back(expr);
        b.Add(k.col.id, std::move(expr), k.col.name);
      }
      for (const auto& a : op->projections) {
        HQ_ASSIGN_OR_RETURN(
            std::string expr,
            RenderScalar(a.expr, scope, op->group_keys.empty()));
        b.Add(a.col.id, std::move(expr), a.col.name);
      }
      b.aggregate = true;
      return b;
    }

    case XtraKind::kSort:
    case XtraKind::kLimit: {
      // Merge Sort directly under Limit so LIMIT applies to the ordered
      // rows even on engines that do not preserve subquery order.
      const XtraOp* limit = op->kind == XtraKind::kLimit ? op.get() : nullptr;
      XtraPtr sort_node =
          op->kind == XtraKind::kSort
              ? op
              : (op->children[0]->kind == XtraKind::kSort ? op->children[0]
                                                          : nullptr);
      XtraPtr base = sort_node ? sort_node->children[0]
                               : op->children[0];
      HQ_ASSIGN_OR_RETURN(Block b, Render(base));
      const std::vector<xtra::XtraSortKey> no_keys;
      const auto& keys = sort_node ? sort_node->sort_keys : no_keys;
      // A key attaches by its output name, which must name one column.
      auto key_name = [&b](const xtra::XtraSortKey& k) -> const std::string* {
        if (k.expr->kind != ScalarKind::kColRef) return nullptr;
        const std::string* name = b.NameOf(k.expr->col);
        return name != nullptr && b.Unique(*name) ? name : nullptr;
      };
      bool attach = b.union_all.empty() && !b.Ordered();
      for (const auto& k : keys) attach = attach && key_name(k) != nullptr;
      if (!attach) b = Derived(b);
      for (const auto& k : keys) {
        std::string key;
        if (const std::string* name = key_name(k)) {
          key = QuoteIdent(*name);
        } else {
          HQ_ASSIGN_OR_RETURN(key, RenderScalar(k.expr, b.cols));
        }
        b.order_by.push_back(StrCat(key, k.ascending ? "" : " DESC"));
      }
      if (limit != nullptr) {
        b.limit = limit->limit;
        b.offset = limit->offset;
      }
      return b;
    }

    case XtraKind::kUnionAll: {
      HQ_ASSIGN_OR_RETURN(Block left, Render(op->children[0]));
      HQ_ASSIGN_OR_RETURN(Block right, Render(op->children[1]));
      if (left.items.size() != op->output.size()) {
        return InternalError("union output does not match its left child");
      }
      // Positional union: expose the union's output ids under the left
      // child's column names.
      Block out;
      for (size_t i = 0; i < op->output.size(); ++i) {
        const std::string& name = left.items[i].name;
        out.Add(op->output[i].id, QuoteIdent(name), name);
      }
      out.union_all = StrCat(left.Sql(), " UNION ALL ", right.Sql());
      return out;
    }
  }
  return InternalError("unhandled XTRA operator in serializer");
}

Result<std::string> Serializer::Serialize(const XtraPtr& root) {
  if (!root) return InvalidArgument("serializer: null XTRA tree");
  HQ_ASSIGN_OR_RETURN(Block b, Render(root));
  // Maintain Q's ordered-list semantics on the final result (§3.3): order
  // by the implicit order column unless the tree already ends in a sort or
  // the Xformer decided order is not required.
  if (root->order_required && root->kind != XtraKind::kSort &&
      root->kind != XtraKind::kLimit && root->ord_col != kNoCol) {
    const std::string* name = b.NameOf(root->ord_col);
    if (name == nullptr) {
      return InternalError("serializer: the order column is not an output");
    }
    if (!b.union_all.empty() || !b.Unique(*name)) {
      return StrCat("SELECT * FROM (", b.Sql(), ") AS ", kFinalWrapperAlias,
                    " ORDER BY ", QuoteIdent(*name));
    }
    b.order_by.push_back(QuoteIdent(*name));
  }
  return b.Sql();
}

}  // namespace hyperq
