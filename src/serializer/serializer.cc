#include "serializer/serializer.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string_view>

#include "common/sql_markers.h"
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

// While a template is being written, a slotted constant renders as
//   kSlotOpen <slot digits> kSlotValue <concrete text> kSlotClose
// and one pass over the result splits it into the concrete SQL and the
// `$n` template.
constexpr char kSlotOpen = '\x01';
constexpr char kSlotValue = '\x02';
constexpr char kSlotClose = '\x03';

bool IsSlotMarker(char c) {
  return c == kSlotOpen || c == kSlotValue || c == kSlotClose;
}

/// Splits marked text into `out`. Every byte that comes from a name or a
/// value sits inside a quoted identifier or literal, and marker bytes are
/// only ever written outside one; a marker byte inside quotes is therefore
/// user data, and the split fails.
bool SplitMarked(std::string_view text, Serializer::Templated* out) {
  out->sql.reserve(text.size());
  out->sql_template.reserve(text.size());
  size_t copied = 0;  // text[0, copied) is already in the outputs
  char quote = 0;     // the open quote character, if any
  int slot = -1;      // >= 0 between kSlotValue and kSlotClose
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quote != 0) {
      if (c == quote) {
        // A doubled quote is an escaped quote character.
        if (i + 1 < text.size() && text[i + 1] == quote) {
          ++i;
        } else {
          quote = 0;
        }
      } else if (IsSlotMarker(c)) {
        return false;
      }
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      continue;
    }
    if (c == kSlotOpen && slot < 0) {
      std::string_view plain = text.substr(copied, i - copied);
      out->sql += plain;
      out->sql_template += plain;
      const char* digits = text.data() + i + 1;
      const char* end = text.data() + text.size();
      auto [value, ec] = std::from_chars(digits, end, slot);
      if (ec != std::errc() || value == end || *value != kSlotValue ||
          slot < 0) {
        return false;
      }
      i = value - text.data();
      copied = i + 1;
    } else if (c == kSlotClose && slot >= 0) {
      out->sql += text.substr(copied, i - copied);
      out->sql_template += StrCat("$", slot + 1);
      out->emitted_slots.push_back(slot);
      slot = -1;
      copied = i + 1;
    } else if (IsSlotMarker(c)) {
      return false;
    }
  }
  if (quote != 0 || slot >= 0) return false;
  std::string_view rest = text.substr(copied);
  out->sql += rest;
  out->sql_template += rest;
  return true;
}

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
    const std::string& alias) {
  return RenderScalarTwoSided(e, cols, alias, {}, "");
}

Result<std::string> Serializer::RenderScalarTwoSided(
    const ScalarPtr& e, const std::map<ColId, std::string>& left_cols,
    const std::string& left_alias,
    const std::map<ColId, std::string>& right_cols,
    const std::string& right_alias) {
  // Local recursive rendering with a two-sided column resolver.
  std::function<Result<std::string>(const ScalarPtr&)> render =
      [&](const ScalarPtr& node) -> Result<std::string> {
    switch (node->kind) {
      case ScalarKind::kConst: {
        HQ_ASSIGN_OR_RETURN(std::string text, RenderConstant(node->value));
        if (!mark_slots_ || node->param_slot < 0) return text;
        marked_ = true;
        return StrCat(kSlotOpen, node->param_slot, kSlotValue, text,
                      kSlotClose);
      }
      case ScalarKind::kColRef: {
        auto l = left_cols.find(node->col);
        if (l != left_cols.end()) {
          return StrCat(left_alias, ".", QuoteIdent(l->second));
        }
        auto r = right_cols.find(node->col);
        if (r != right_cols.end()) {
          return StrCat(right_alias, ".", QuoteIdent(r->second));
        }
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
        return StrCat(name, "(", node->distinct ? "DISTINCT " : "",
                      Join(args, ", "), ")");
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

Result<Serializer::Rendered> Serializer::Render(const XtraPtr& op) {
  switch (op->kind) {
    case XtraKind::kGet: {
      Rendered out;
      std::vector<std::string> cols;
      for (const auto& c : op->output) {
        cols.push_back(QuoteIdent(c.name));
        out.columns[c.id] = c.name;
      }
      if (cols.empty()) cols.push_back("*");
      out.sql = StrCat("SELECT ", Join(cols, ", "), " FROM ",
                       QuoteIdent(op->table));
      return out;
    }

    case XtraKind::kFilter: {
      HQ_ASSIGN_OR_RETURN(Rendered child, Render(op->children[0]));
      std::string alias = StrCat("t", next_alias_++);
      HQ_ASSIGN_OR_RETURN(
          std::string pred,
          RenderScalar(op->predicate, child.columns, alias));
      Rendered out;
      std::vector<std::string> cols;
      for (const auto& c : op->output) {
        cols.push_back(StrCat(alias, ".", QuoteIdent(child.columns[c.id]),
                              " AS ", QuoteIdent(c.name)));
        out.columns[c.id] = c.name;
      }
      out.sql = StrCat("SELECT ", Join(cols, ", "), " FROM (", child.sql,
                       ") AS ", alias, " WHERE ", pred);
      return out;
    }

    case XtraKind::kProject: {
      Rendered child;
      std::string alias;
      bool has_child = !op->children.empty();
      if (has_child) {
        HQ_ASSIGN_OR_RETURN(child, Render(op->children[0]));
        alias = StrCat("t", next_alias_++);
      }
      Rendered out;
      std::vector<std::string> items;
      for (const auto& p : op->projections) {
        HQ_ASSIGN_OR_RETURN(
            std::string expr,
            RenderScalar(p.expr, child.columns, alias));
        items.push_back(StrCat(expr, " AS ", QuoteIdent(p.col.name)));
        out.columns[p.col.id] = p.col.name;
      }
      out.sql = StrCat("SELECT ", op->distinct ? "DISTINCT " : "",
                       Join(items, ", "));
      if (has_child) {
        out.sql += StrCat(" FROM (", child.sql, ") AS ", alias);
      }
      return out;
    }

    case XtraKind::kJoin: {
      HQ_ASSIGN_OR_RETURN(Rendered left, Render(op->children[0]));
      HQ_ASSIGN_OR_RETURN(Rendered right, Render(op->children[1]));
      std::string la = StrCat("t", next_alias_++);
      std::string ra = StrCat("t", next_alias_++);
      HQ_ASSIGN_OR_RETURN(
          std::string cond,
          RenderScalarTwoSided(op->predicate, left.columns, la,
                               right.columns, ra));
      Rendered out;
      std::vector<std::string> cols;
      for (const auto& c : op->output) {
        std::string src;
        auto l = left.columns.find(c.id);
        if (l != left.columns.end()) {
          src = StrCat(la, ".", QuoteIdent(l->second));
        } else {
          auto r = right.columns.find(c.id);
          if (r == right.columns.end()) {
            return InternalError(StrCat("join output column ", c.id,
                                        " not produced by either child"));
          }
          src = StrCat(ra, ".", QuoteIdent(r->second));
        }
        cols.push_back(StrCat(src, " AS ", QuoteIdent(c.name)));
        out.columns[c.id] = c.name;
      }
      const char* join_kw = op->join_kind == xtra::XtraJoinKind::kLeftOuter
                                ? "LEFT JOIN"
                                : "JOIN";
      out.sql = StrCat("SELECT ", Join(cols, ", "), " FROM (", left.sql,
                       ") AS ", la, " ", join_kw, " (", right.sql, ") AS ",
                       ra, " ON ", cond);
      return out;
    }

    case XtraKind::kGroupAgg: {
      HQ_ASSIGN_OR_RETURN(Rendered child, Render(op->children[0]));
      std::string alias = StrCat("t", next_alias_++);
      Rendered out;
      std::vector<std::string> items;
      std::vector<std::string> group_exprs;
      for (const auto& k : op->group_keys) {
        HQ_ASSIGN_OR_RETURN(std::string expr,
                            RenderScalar(k.expr, child.columns, alias));
        items.push_back(StrCat(expr, " AS ", QuoteIdent(k.col.name)));
        group_exprs.push_back(expr);
        out.columns[k.col.id] = k.col.name;
      }
      for (const auto& a : op->projections) {
        HQ_ASSIGN_OR_RETURN(std::string expr,
                            RenderScalar(a.expr, child.columns, alias));
        items.push_back(StrCat(expr, " AS ", QuoteIdent(a.col.name)));
        out.columns[a.col.id] = a.col.name;
      }
      out.sql = StrCat("SELECT ", Join(items, ", "), " FROM (", child.sql,
                       ") AS ", alias);
      if (!group_exprs.empty()) {
        out.sql += StrCat(" GROUP BY ", Join(group_exprs, ", "));
      }
      return out;
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
      HQ_ASSIGN_OR_RETURN(Rendered child, Render(base));
      std::string alias = StrCat("t", next_alias_++);
      Rendered out;
      std::vector<std::string> cols;
      for (const auto& c : op->output) {
        cols.push_back(StrCat(alias, ".", QuoteIdent(child.columns[c.id]),
                              " AS ", QuoteIdent(c.name)));
        out.columns[c.id] = c.name;
      }
      out.sql = StrCat("SELECT ", Join(cols, ", "), " FROM (", child.sql,
                       ") AS ", alias);
      if (sort_node) {
        std::vector<std::string> keys;
        for (const auto& k : sort_node->sort_keys) {
          HQ_ASSIGN_OR_RETURN(std::string expr,
                              RenderScalar(k.expr, child.columns, alias));
          keys.push_back(StrCat(expr, k.ascending ? "" : " DESC"));
        }
        out.sql += StrCat(" ORDER BY ", Join(keys, ", "));
      }
      if (limit != nullptr) {
        if (limit->limit >= 0) out.sql += StrCat(" LIMIT ", limit->limit);
        if (limit->offset > 0) out.sql += StrCat(" OFFSET ", limit->offset);
      }
      return out;
    }

    case XtraKind::kUnionAll: {
      HQ_ASSIGN_OR_RETURN(Rendered left, Render(op->children[0]));
      HQ_ASSIGN_OR_RETURN(Rendered right, Render(op->children[1]));
      Rendered out;
      // Positional union: expose the union's output ids under the left
      // child's column names.
      for (size_t i = 0; i < op->output.size(); ++i) {
        out.columns[op->output[i].id] =
            left.columns[op->children[0]->output[i].id];
      }
      out.sql = StrCat(left.sql, " UNION ALL ", right.sql);
      return out;
    }
  }
  return InternalError("unhandled XTRA operator in serializer");
}

Result<std::string> Serializer::Serialize(const XtraPtr& root) {
  if (!root) return InvalidArgument("serializer: null XTRA tree");
  HQ_ASSIGN_OR_RETURN(Rendered rendered, Render(root));
  std::string sql = rendered.sql;
  // Maintain Q's ordered-list semantics on the final result (§3.3): order
  // by the implicit order column unless the tree already ends in a sort or
  // the Xformer decided order is not required.
  if (root->order_required && root->kind != XtraKind::kSort &&
      root->kind != XtraKind::kLimit && root->ord_col != kNoCol) {
    sql = StrCat("SELECT * FROM (", sql, ") AS ", kSqlFinalWrapperAlias,
                 " ORDER BY ", QuoteIdent(rendered.columns[root->ord_col]));
  }
  return sql;
}

Result<Serializer::Templated> Serializer::SerializeWithTemplate(
    const XtraPtr& root) {
  const int first_alias = next_alias_;
  mark_slots_ = true;
  marked_ = false;
  Result<std::string> marked = Serialize(root);
  mark_slots_ = false;
  HQ_RETURN_IF_ERROR(marked.status());
  Templated out;
  if (!marked_) {
    out.sql = std::move(*marked);
    out.sql_template = out.sql;
    return out;
  }
  if (SplitMarked(*marked, &out)) return out;
  // A name or literal holds a marker byte: render the concrete text
  // plainly.
  next_alias_ = first_alias;
  HQ_ASSIGN_OR_RETURN(std::string sql, Serialize(root));
  return Templated{std::move(sql), {}, {}};
}

}  // namespace hyperq
