#include "sqldb/eval.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <set>

#include "common/strings.h"
#include "qval/temporal.h"
#include "sqldb/operators.h"

namespace hyperq {
namespace sqldb {

namespace {

bool IsFloatDatum(const Datum& d) {
  return d.type() == SqlType::kReal || d.type() == SqlType::kDouble;
}

Result<Datum> NumericBinary(const std::string& op, const Datum& a,
                            const Datum& b) {
  if (!IsNumericType(a.type()) && !IsTemporalType(a.type())) {
    return TypeError(StrCat("operator ", op, " not defined for ",
                            SqlTypeName(a.type())));
  }
  if (!IsNumericType(b.type()) && !IsTemporalType(b.type())) {
    return TypeError(StrCat("operator ", op, " not defined for ",
                            SqlTypeName(b.type())));
  }
  bool use_float = IsFloatDatum(a) || IsFloatDatum(b);
  if (op == "/" && use_float) {
    double y = b.AsDouble();
    return Datum::Double(a.AsDouble() / y);
  }
  if (use_float) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    if (op == "+") return Datum::Double(x + y);
    if (op == "-") return Datum::Double(x - y);
    if (op == "*") return Datum::Double(x * y);
    if (op == "%") {
      if (y == 0) return ExecutionError("division by zero");
      return Datum::Double(std::fmod(x, y));
    }
    return InternalError(StrCat("unknown numeric operator ", op));
  }
  int64_t x = a.AsInt();
  int64_t y = b.AsInt();
  // Temporal arithmetic: value +/- integer stays temporal; so does the
  // sum of two same-typed temporals (matching q's promotion).
  SqlType rt = SqlType::kBigInt;
  if (IsTemporalType(a.type()) && !IsTemporalType(b.type())) rt = a.type();
  if (IsTemporalType(b.type()) && !IsTemporalType(a.type())) rt = b.type();
  if (IsTemporalType(a.type()) && a.type() == b.type() && op != "-") {
    rt = a.type();
  }
  if (op == "+") return Datum::Int(rt, x + y);
  if (op == "-") {
    if (IsTemporalType(a.type()) && a.type() == b.type()) {
      return Datum::BigInt(x - y);  // difference of temporals is a count
    }
    return Datum::Int(rt, x - y);
  }
  if (op == "*") return Datum::Int(rt, x * y);
  if (op == "/") {
    if (y == 0) return ExecutionError("division by zero");
    return Datum::BigInt(x / y);  // PG: integer division truncates
  }
  if (op == "%") {
    if (y == 0) return ExecutionError("division by zero");
    return Datum::BigInt(x % y);
  }
  return InternalError(StrCat("unknown numeric operator ", op));
}

Result<int> CompareDatums(const Datum& a, const Datum& b,
                          const std::string& op_for_error) {
  bool sa = IsStringType(a.type());
  bool sb = IsStringType(b.type());
  if (sa != sb) {
    return TypeError(StrCat("cannot compare ", SqlTypeName(a.type()), " ",
                            op_for_error, " ", SqlTypeName(b.type())));
  }
  return Datum::Compare(a, b);
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // SQL LIKE: % any sequence, _ any single char.
  size_t t = 0, p = 0, star_t = std::string::npos, star_p = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_t != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Datum> EvalScalarFunction(const Expr& e,
                                 const std::vector<Datum>& args) {
  const std::string& f = e.func_name;
  auto need = [&](size_t n) -> Status {
    if (args.size() != n) {
      return TypeError(StrCat("function ", f, " expects ", n,
                              " argument(s), got ", args.size()));
    }
    return Status::OK();
  };
  // COALESCE / NULLIF / GREATEST / LEAST handle nulls specially.
  if (f == "coalesce") {
    for (const auto& a : args) {
      if (!a.is_null()) return a;
    }
    return Datum::Null();
  }
  if (f == "nullif") {
    HQ_RETURN_IF_ERROR(need(2));
    if (!args[0].is_null() && !args[1].is_null() &&
        Datum::DistinctEquals(args[0], args[1])) {
      return Datum::Null();
    }
    return args[0];
  }
  if (f == "greatest" || f == "least") {
    Datum best;
    for (const auto& a : args) {
      if (a.is_null()) continue;
      if (best.is_null()) {
        best = a;
        continue;
      }
      int cmp = Datum::Compare(a, best);
      if ((f == "greatest" && cmp > 0) || (f == "least" && cmp < 0)) {
        best = a;
      }
    }
    return best;
  }

  // Remaining functions are strict: NULL in -> NULL out.
  for (const auto& a : args) {
    if (a.is_null()) return Datum::Null();
  }

  if (f == "abs") {
    HQ_RETURN_IF_ERROR(need(1));
    if (IsFloatDatum(args[0])) return Datum::Double(std::fabs(args[0].AsDouble()));
    int64_t v = args[0].AsInt();
    // Preserve the integral/temporal type (q's abs is type-preserving).
    SqlType rt = args[0].type() == SqlType::kBoolean ? SqlType::kBigInt
                                                     : args[0].type();
    return Datum::Int(rt, v < 0 ? -v : v);
  }
  if (f == "floor" || f == "ceil" || f == "ceiling" || f == "round") {
    HQ_RETURN_IF_ERROR(need(1));
    double v = args[0].AsDouble();
    if (f == "floor") return Datum::Double(std::floor(v));
    if (f == "round") return Datum::Double(std::round(v));
    return Datum::Double(std::ceil(v));
  }
  if (f == "sqrt") {
    HQ_RETURN_IF_ERROR(need(1));
    return Datum::Double(std::sqrt(args[0].AsDouble()));
  }
  if (f == "exp") {
    HQ_RETURN_IF_ERROR(need(1));
    return Datum::Double(std::exp(args[0].AsDouble()));
  }
  if (f == "ln" || f == "log") {
    HQ_RETURN_IF_ERROR(need(1));
    return Datum::Double(std::log(args[0].AsDouble()));
  }
  if (f == "power" || f == "pow") {
    HQ_RETURN_IF_ERROR(need(2));
    return Datum::Double(std::pow(args[0].AsDouble(), args[1].AsDouble()));
  }
  if (f == "mod") {
    HQ_RETURN_IF_ERROR(need(2));
    if (args[1].AsInt() == 0) return ExecutionError("division by zero");
    return Datum::BigInt(args[0].AsInt() % args[1].AsInt());
  }
  if (f == "sign") {
    HQ_RETURN_IF_ERROR(need(1));
    double v = args[0].AsDouble();
    return Datum::BigInt(v > 0 ? 1 : (v < 0 ? -1 : 0));
  }
  if (f == "lower" || f == "upper") {
    HQ_RETURN_IF_ERROR(need(1));
    if (!IsStringType(args[0].type())) {
      return TypeError(StrCat(f, " requires a string argument"));
    }
    return Datum::Text(f == "lower" ? ToLower(args[0].AsString())
                                    : ToUpper(args[0].AsString()));
  }
  if (f == "length" || f == "char_length") {
    HQ_RETURN_IF_ERROR(need(1));
    return Datum::BigInt(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (f == "substr" || f == "substring") {
    if (args.size() < 2 || args.size() > 3) {
      return TypeError("substr takes 2 or 3 arguments");
    }
    const std::string& s = args[0].AsString();
    int64_t start = std::max<int64_t>(1, args[1].AsInt()) - 1;
    if (start >= static_cast<int64_t>(s.size())) return Datum::Text("");
    size_t len = args.size() == 3
                     ? static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()))
                     : std::string::npos;
    return Datum::Text(s.substr(start, len));
  }
  if (f == "concat") {
    std::string out;
    for (const auto& a : args) out += a.ToText();
    return Datum::Text(out);
  }
  return Unsupported(StrCat("function ", f,
                            " is not implemented in the mini PG engine"));
}

/// Resolves a column reference against `rel` and memoizes the index on the
/// node. Relation addresses can be reused across queries, so the memo is
/// validated against the column name before it is trusted.
Result<int> ResolveColRef(const Expr& e, const Relation& rel) {
  if (e.resolved_rel == &rel && e.resolved_idx >= 0 &&
      static_cast<size_t>(e.resolved_idx) < rel.cols.size() &&
      rel.cols[e.resolved_idx].name == e.column) {
    return e.resolved_idx;
  }
  HQ_ASSIGN_OR_RETURN(int idx, rel.Resolve(e.qualifier, e.column));
  e.resolved_rel = &rel;
  e.resolved_idx = idx;
  return idx;
}

/// The non-AND/OR binary operator, applied to already-evaluated operands.
/// Shared between EvalExpr and the per-row fallback of the batch kernels.
Result<Datum> ScalarBinaryTail(const Expr& e, const Datum& a,
                               const Datum& b) {
  const std::string& op = e.op;
  if (op == "IS_DISTINCT" || op == "IS_NOT_DISTINCT") {
    bool eq = Datum::DistinctEquals(a, b);
    return Datum::Bool(op == "IS_DISTINCT" ? !eq : eq);
  }
  if (a.is_null() || b.is_null()) return Datum::Null();
  if (int cmp_op = CmpOpIndex(op); cmp_op >= 0) {
    HQ_ASSIGN_OR_RETURN(int cmp, CompareDatums(a, b, op));
    return Datum::Bool(CmpHolds(cmp_op, cmp));
  }
  if (op == "||") {
    return Datum::Text(a.ToText() + b.ToText());
  }
  if (op == "LIKE") {
    if (!IsStringType(a.type()) || !IsStringType(b.type())) {
      return TypeError("LIKE requires string operands");
    }
    return Datum::Bool(LikeMatch(a.AsString(), b.AsString()));
  }
  return NumericBinary(op, a, b);
}

}  // namespace

bool DatumIsTrue(const Datum& d) { return !d.is_null() && d.AsInt() != 0; }

Result<Datum> CastDatum(const Datum& d, SqlType target) {
  if (d.is_null()) return Datum::Null();
  if (d.type() == target) return d;
  if (IsStringType(target)) {
    return Datum::String(target, d.ToText());
  }
  if (IsStringType(d.type())) {
    const std::string& s = d.AsString();
    switch (target) {
      case SqlType::kBoolean: {
        std::string v = ToLower(s);
        if (v == "t" || v == "true" || v == "1") return Datum::Bool(true);
        if (v == "f" || v == "false" || v == "0") return Datum::Bool(false);
        return TypeError(StrCat("invalid boolean literal '", s, "'"));
      }
      case SqlType::kSmallInt:
      case SqlType::kInteger:
      case SqlType::kBigInt:
        return Datum::Int(target, std::atoll(s.c_str()));
      case SqlType::kReal:
      case SqlType::kDouble:
        return Datum::Float(target, std::strtod(s.c_str(), nullptr));
      case SqlType::kDate: {
        HQ_ASSIGN_OR_RETURN(int64_t days, ParseIsoDate(s));
        return Datum::Date(days);
      }
      case SqlType::kTime: {
        HQ_ASSIGN_OR_RETURN(int64_t ms, ParseIsoTime(s));
        return Datum::Time(ms);
      }
      case SqlType::kTimestamp: {
        HQ_ASSIGN_OR_RETURN(int64_t ns, ParseIsoTimestamp(s));
        return Datum::Timestamp(ns);
      }
      default:
        return TypeError(StrCat("cannot cast text to ", SqlTypeName(target)));
    }
  }
  // Numeric/temporal conversions.
  if (IsFloatDatum(d)) {
    double v = d.AsDouble();
    switch (target) {
      case SqlType::kReal:
      case SqlType::kDouble:
        return Datum::Float(target, v);
      case SqlType::kBoolean:
        return Datum::Bool(v != 0);
      case SqlType::kSmallInt:
      case SqlType::kInteger:
      case SqlType::kBigInt:
        return Datum::Int(target, static_cast<int64_t>(std::llround(v)));
      default:
        return TypeError(StrCat("cannot cast double to ",
                                SqlTypeName(target)));
    }
  }
  int64_t v = d.AsInt();
  switch (target) {
    case SqlType::kBoolean:
      return Datum::Bool(v != 0);
    case SqlType::kSmallInt:
    case SqlType::kInteger:
    case SqlType::kBigInt:
      return Datum::Int(target, v);
    case SqlType::kReal:
    case SqlType::kDouble:
      return Datum::Float(target, static_cast<double>(v));
    case SqlType::kDate:
      if (d.type() == SqlType::kTimestamp) {
        int64_t days = v / 86400000000000LL;
        if (v < 0 && v % 86400000000000LL != 0) --days;
        return Datum::Date(days);
      }
      return Datum::Date(v);
    case SqlType::kTime:
      if (d.type() == SqlType::kTimestamp) {
        int64_t rem = v % 86400000000000LL;
        if (rem < 0) rem += 86400000000000LL;
        return Datum::Time(rem / 1000000);
      }
      return Datum::Time(v);
    case SqlType::kTimestamp:
      if (d.type() == SqlType::kDate) {
        return Datum::Timestamp(v * 86400000000000LL);
      }
      return Datum::Timestamp(v);
    default:
      return TypeError(StrCat("cannot cast ", SqlTypeName(d.type()), " to ",
                              SqlTypeName(target)));
  }
}

Result<Datum> EvalExpr(const Expr& e, const EvalCtx& ctx) {
  switch (e.kind) {
    case ExprKind::kConst:
      return e.datum;
    case ExprKind::kColRef: {
      if (ctx.rel == nullptr) {
        return BindError(StrCat("column \"", e.column,
                                "\" referenced without a FROM clause"));
      }
      HQ_ASSIGN_OR_RETURN(int idx, ResolveColRef(e, *ctx.rel));
      return ctx.rel->At(ctx.row_idx, idx);
    }
    case ExprKind::kStar:
      return BindError("'*' is only valid in select lists and COUNT(*)");
    case ExprKind::kUnary: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.lhs, ctx));
      if (e.op == "NOT") {
        if (v.is_null()) return Datum::Null();
        return Datum::Bool(!DatumIsTrue(v));
      }
      // Unary minus.
      if (v.is_null()) return Datum::Null();
      if (IsFloatDatum(v)) return Datum::Double(-v.AsDouble());
      return Datum::Int(v.type() == SqlType::kBoolean ? SqlType::kBigInt
                                                      : v.type(),
                        -v.AsInt());
    }
    case ExprKind::kBinary: {
      const std::string& op = e.op;
      if (op == "AND" || op == "OR") {
        // Kleene 3-valued logic with short-circuit.
        HQ_ASSIGN_OR_RETURN(Datum a, EvalExpr(*e.lhs, ctx));
        bool a_true = DatumIsTrue(a);
        bool a_false = !a.is_null() && !a_true;
        if (op == "AND" && a_false) return Datum::Bool(false);
        if (op == "OR" && a_true) return Datum::Bool(true);
        HQ_ASSIGN_OR_RETURN(Datum b, EvalExpr(*e.rhs, ctx));
        bool b_true = DatumIsTrue(b);
        bool b_false = !b.is_null() && !b_true;
        if (op == "AND") {
          if (b_false) return Datum::Bool(false);
          if (a.is_null() || b.is_null()) return Datum::Null();
          return Datum::Bool(true);
        }
        if (b_true) return Datum::Bool(true);
        if (a.is_null() || b.is_null()) return Datum::Null();
        return Datum::Bool(false);
      }
      HQ_ASSIGN_OR_RETURN(Datum a, EvalExpr(*e.lhs, ctx));
      HQ_ASSIGN_OR_RETURN(Datum b, EvalExpr(*e.rhs, ctx));
      return ScalarBinaryTail(e, a, b);
    }
    case ExprKind::kIsNull: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.lhs, ctx));
      return Datum::Bool(e.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kInList: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.lhs, ctx));
      if (v.is_null()) return Datum::Null();
      bool saw_null = false;
      for (const auto& item : e.args) {
        HQ_ASSIGN_OR_RETURN(Datum x, EvalExpr(*item, ctx));
        if (x.is_null()) {
          saw_null = true;
          continue;
        }
        if (Datum::DistinctEquals(v, x)) {
          return Datum::Bool(!e.negated);
        }
      }
      if (saw_null) return Datum::Null();
      return Datum::Bool(e.negated);
    }
    case ExprKind::kBetween: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.lhs, ctx));
      HQ_ASSIGN_OR_RETURN(Datum lo, EvalExpr(*e.low, ctx));
      HQ_ASSIGN_OR_RETURN(Datum hi, EvalExpr(*e.high, ctx));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Datum::Null();
      HQ_ASSIGN_OR_RETURN(int c1, CompareDatums(lo, v, "BETWEEN"));
      HQ_ASSIGN_OR_RETURN(int c2, CompareDatums(v, hi, "BETWEEN"));
      bool in = c1 <= 0 && c2 <= 0;
      return Datum::Bool(e.negated ? !in : in);
    }
    case ExprKind::kCase: {
      size_t pairs = e.has_else ? (e.args.size() - 1) / 2 : e.args.size() / 2;
      for (size_t i = 0; i < pairs; ++i) {
        HQ_ASSIGN_OR_RETURN(Datum c, EvalExpr(*e.args[2 * i], ctx));
        if (DatumIsTrue(c)) return EvalExpr(*e.args[2 * i + 1], ctx);
      }
      if (e.has_else) return EvalExpr(*e.args.back(), ctx);
      return Datum::Null();
    }
    case ExprKind::kCast: {
      HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.lhs, ctx));
      return CastDatum(v, e.cast_type);
    }
    case ExprKind::kFuncCall: {
      if (IsAggregateFunction(e.func_name)) {
        if (ctx.agg_values != nullptr) {
          auto it = ctx.agg_values->find(&e);
          if (it != ctx.agg_values->end()) return it->second;
        }
        return BindError(StrCat("aggregate ", e.func_name,
                                " used outside of a grouped context"));
      }
      std::vector<Datum> args;
      args.reserve(e.args.size());
      for (const auto& a : e.args) {
        HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*a, ctx));
        args.push_back(std::move(v));
      }
      return EvalScalarFunction(e, args);
    }
    case ExprKind::kWindow: {
      if (ctx.window_values != nullptr) {
        auto it = ctx.window_values->find(&e);
        if (it != ctx.window_values->end()) {
          return it->second->At(ctx.row_idx);
        }
      }
      return BindError(StrCat("window function ", e.func_name,
                              " used in an unsupported position"));
    }
  }
  return InternalError("unhandled expression kind");
}

bool IsAggregateFunction(const std::string& f) {
  // first/last are engine extensions (DuckDB-style) so Hyper-Q can map q's
  // order-dependent first/last aggregates; they use the group's row order.
  return f == "count" || f == "sum" || f == "avg" || f == "min" ||
         f == "max" || f == "stddev_pop" || f == "stddev" ||
         f == "var_pop" || f == "variance" || f == "bool_and" ||
         f == "bool_or" || f == "median" || f == "first" || f == "last";
}

void CollectAggregates(const ExprPtr& e, std::vector<const Expr*>* out) {
  if (!e) return;
  if (e->kind == ExprKind::kFuncCall && IsAggregateFunction(e->func_name)) {
    out->push_back(e.get());
    return;  // no nested aggregates
  }
  if (e->kind == ExprKind::kWindow) return;
  CollectAggregates(e->lhs, out);
  CollectAggregates(e->rhs, out);
  CollectAggregates(e->low, out);
  CollectAggregates(e->high, out);
  for (const auto& a : e->args) CollectAggregates(a, out);
}

void CollectWindows(const ExprPtr& e, std::vector<const Expr*>* out) {
  if (!e) return;
  if (e->kind == ExprKind::kWindow) {
    out->push_back(e.get());
    return;
  }
  CollectWindows(e->lhs, out);
  CollectWindows(e->rhs, out);
  CollectWindows(e->low, out);
  CollectWindows(e->high, out);
  for (const auto& a : e->args) CollectWindows(a, out);
}

namespace {

/// Reduces the collected (non-null, DISTINCT-filtered, member-ordered)
/// argument values of one aggregate. Shared by the row-at-a-time and the
/// columnar mixed-storage paths so both accumulate in the same order.
Result<Datum> AggregateCollected(const std::string& f,
                                 const std::vector<Datum>& values) {
  if (f == "count") {
    return Datum::BigInt(static_cast<int64_t>(values.size()));
  }
  if (values.empty()) return Datum::Null();

  if (f == "min" || f == "max") {
    Datum best = values[0];
    for (const auto& v : values) {
      int cmp = Datum::Compare(v, best);
      if ((f == "min" && cmp < 0) || (f == "max" && cmp > 0)) best = v;
    }
    return best;
  }
  if (f == "bool_and" || f == "bool_or") {
    bool acc = f == "bool_and";
    for (const auto& v : values) {
      bool t = DatumIsTrue(v);
      acc = f == "bool_and" ? (acc && t) : (acc || t);
    }
    return Datum::Bool(acc);
  }

  bool any_float = false;
  for (const auto& v : values) any_float |= IsFloatDatum(v);
  if (f == "sum") {
    if (any_float) {
      double s = 0;
      for (const auto& v : values) s += v.AsDouble();
      return Datum::Double(s);
    }
    int64_t s = 0;
    for (const auto& v : values) s += v.AsInt();
    return Datum::BigInt(s);
  }
  double s = 0, s2 = 0;
  std::vector<double> xs;
  xs.reserve(values.size());
  for (const auto& v : values) {
    double x = v.AsDouble();
    xs.push_back(x);
    s += x;
    s2 += x * x;
  }
  double n = static_cast<double>(xs.size());
  if (f == "avg") return Datum::Double(s / n);
  if (f == "median") {
    std::sort(xs.begin(), xs.end());
    size_t m = xs.size() / 2;
    return Datum::Double(xs.size() % 2 == 1 ? xs[m]
                                            : (xs[m - 1] + xs[m]) / 2.0);
  }
  double mean = s / n;
  double var_pop = s2 / n - mean * mean;
  if (f == "var_pop") return Datum::Double(var_pop);
  if (f == "stddev_pop") return Datum::Double(std::sqrt(std::max(0.0, var_pop)));
  // Sample variance/stddev (PG's variance/stddev).
  if (xs.size() < 2) return Datum::Null();
  double var_samp = (s2 - n * mean * mean) / (n - 1);
  if (f == "variance") return Datum::Double(var_samp);
  return Datum::Double(std::sqrt(std::max(0.0, var_samp)));  // stddev
}

}  // namespace

Result<Datum> ComputeAggregate(const Expr& agg, const Relation& rel,
                               const std::vector<size_t>& member_rows) {
  const std::string& f = agg.func_name;
  bool star = !agg.args.empty() && agg.args[0]->kind == ExprKind::kStar;
  if (f == "count" && (agg.args.empty() || star)) {
    return Datum::BigInt(static_cast<int64_t>(member_rows.size()));
  }
  if (agg.args.size() != 1 && f != "count") {
    return TypeError(StrCat("aggregate ", f, " takes one argument"));
  }

  // first/last take the group's first/last element in row order, including
  // NULLs (q semantics).
  if (f == "first" || f == "last") {
    if (member_rows.empty()) return Datum::Null();
    EvalCtx ctx;
    ctx.rel = &rel;
    ctx.row_idx = f == "first" ? member_rows.front() : member_rows.back();
    return EvalExpr(*agg.args[0], ctx);
  }

  // Evaluate the argument per member row.
  std::vector<Datum> values;
  values.reserve(member_rows.size());
  std::set<std::string> distinct_seen;
  for (size_t r : member_rows) {
    EvalCtx ctx;
    ctx.rel = &rel;
    ctx.row_idx = r;
    HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(*agg.args[0], ctx));
    if (v.is_null()) continue;  // SQL aggregates ignore NULLs
    if (agg.distinct) {
      std::string key;
      EncodeDatum(v, &key);
      if (!distinct_seen.insert(key).second) continue;
    }
    values.push_back(std::move(v));
  }

  return AggregateCollected(f, values);
}

Result<Datum> ComputeAggregateColumnar(const Expr& agg, const Column& col,
                                       const SelVector& member_rows) {
  const std::string& f = agg.func_name;
  // first/last take the group's first/last element in row order, including
  // NULLs (q semantics).
  if (f == "first" || f == "last") {
    if (member_rows.empty()) return Datum::Null();
    return col.At(f == "first" ? member_rows.front() : member_rows.back());
  }

  Column::Storage st = col.storage();
  if (st != Column::Storage::kInt && st != Column::Storage::kFloat) {
    // Strings / mixed / all-null: materialize and reduce exactly like the
    // row path.
    std::vector<Datum> values;
    values.reserve(member_rows.size());
    std::set<std::string> distinct_seen;
    std::string scratch;
    for (uint32_t r : member_rows) {
      if (col.IsNull(r)) continue;
      if (agg.distinct) {
        scratch.clear();
        col.EncodeValue(r, &scratch);
        if (!distinct_seen.insert(scratch).second) continue;
      }
      values.push_back(col.At(r));
    }
    return AggregateCollected(f, values);
  }

  // Typed numeric path: surviving value positions in member order.
  SelVector idx;
  idx.reserve(member_rows.size());
  {
    std::set<std::string> distinct_seen;
    std::string scratch;
    for (uint32_t r : member_rows) {
      if (col.IsNull(r)) continue;
      if (agg.distinct) {
        scratch.clear();
        col.EncodeValue(r, &scratch);
        if (!distinct_seen.insert(scratch).second) continue;
      }
      idx.push_back(r);
    }
  }
  if (f == "count") return Datum::BigInt(static_cast<int64_t>(idx.size()));
  if (idx.empty()) return Datum::Null();

  bool is_float = st == Column::Storage::kFloat;
  const int64_t* iv = col.ints();
  const double* fv = col.floats();
  SqlType vt = col.value_type();

  if (f == "min" || f == "max") {
    if (is_float) {
      // Mirrors Datum::Compare's NaN placement (sorts last): min skips NaN
      // unless every value is NaN; max sticks on the first NaN it meets.
      double best = fv[idx[0]];
      for (uint32_t r : idx) {
        double x = fv[r];
        int cmp = Cmp3Double(x, best);
        if ((f == "min" && cmp < 0) || (f == "max" && cmp > 0)) best = x;
      }
      return Datum::Float(vt, best);
    }
    int64_t best = iv[idx[0]];
    for (uint32_t r : idx) {
      int64_t x = iv[r];
      if ((f == "min" && x < best) || (f == "max" && x > best)) best = x;
    }
    return Datum::Int(vt, best);
  }
  if (f == "bool_and" || f == "bool_or") {
    bool acc = f == "bool_and";
    for (uint32_t r : idx) {
      // DatumIsTrue reads the int slot; float cells are never "true".
      bool t = is_float ? false : iv[r] != 0;
      acc = f == "bool_and" ? (acc && t) : (acc || t);
    }
    return Datum::Bool(acc);
  }
  if (f == "sum") {
    if (is_float) {
      double s = 0;
      for (uint32_t r : idx) s += fv[r];
      return Datum::Double(s);
    }
    int64_t s = 0;
    for (uint32_t r : idx) s += iv[r];
    return Datum::BigInt(s);
  }
  double s = 0, s2 = 0;
  std::vector<double> xs;
  xs.reserve(idx.size());
  for (uint32_t r : idx) {
    double x = is_float ? fv[r] : static_cast<double>(iv[r]);
    xs.push_back(x);
    s += x;
    s2 += x * x;
  }
  double n = static_cast<double>(xs.size());
  if (f == "avg") return Datum::Double(s / n);
  if (f == "median") {
    std::sort(xs.begin(), xs.end());
    size_t m = xs.size() / 2;
    return Datum::Double(xs.size() % 2 == 1 ? xs[m]
                                            : (xs[m - 1] + xs[m]) / 2.0);
  }
  double mean = s / n;
  double var_pop = s2 / n - mean * mean;
  if (f == "var_pop") return Datum::Double(var_pop);
  if (f == "stddev_pop") return Datum::Double(std::sqrt(std::max(0.0, var_pop)));
  if (xs.size() < 2) return Datum::Null();
  double var_samp = (s2 - n * mean * mean) / (n - 1);
  if (f == "variance") return Datum::Double(var_samp);
  return Datum::Double(std::sqrt(std::max(0.0, var_samp)));  // stddev
}

// ---------------------------------------------------------------------------
// Columnar (batch) evaluation
// ---------------------------------------------------------------------------

bool PreResolve(const Expr& e, const Relation& rel) {
  if (e.kind == ExprKind::kColRef) return ResolveColRef(e, rel).ok();
  if (e.kind == ExprKind::kWindow) return true;  // values precomputed
  bool ok = true;
  if (e.lhs) ok = PreResolve(*e.lhs, rel) && ok;
  if (e.rhs) ok = PreResolve(*e.rhs, rel) && ok;
  if (e.low) ok = PreResolve(*e.low, rel) && ok;
  if (e.high) ok = PreResolve(*e.high, rel) && ok;
  for (const auto& a : e.args) {
    if (a) ok = PreResolve(*a, rel) && ok;
  }
  return ok;
}

namespace {

bool IsArithOp(const std::string& op) {
  return op == "+" || op == "-" || op == "*" || op == "/" || op == "%";
}

/// Per-row fallback: evaluates the whole subexpression row by row with
/// EvalExpr. Always correct; used for node kinds and storage combinations
/// the kernels don't specialize.
Result<ColumnPtr> EvalBatchFallback(const Expr& e, const BatchCtx& ctx,
                                    const uint32_t* sel, size_t n) {
  auto out = std::make_shared<Column>();
  EvalCtx c;
  c.rel = ctx.rel;
  c.window_values = ctx.window_values;
  for (size_t i = 0; i < n; ++i) {
    size_t row = sel ? sel[i] : i;
    c.row_idx = row;
    c.agg_values = ctx.agg_rows ? &(*ctx.agg_rows)[row] : nullptr;
    HQ_ASSIGN_OR_RETURN(Datum v, EvalExpr(e, c));
    out->Append(v);
  }
  return out;
}

/// The non-AND/OR binary kernel over already-evaluated operand columns
/// (both of length n). Falls back to ScalarBinaryTail per row when the
/// storage combination has no tight loop.
Result<ColumnPtr> BinaryKernel(const Expr& e, const Column& a,
                               const Column& b, size_t n) {
  const std::string& op = e.op;
  auto per_row = [&]() -> Result<ColumnPtr> {
    auto out = std::make_shared<Column>();
    for (size_t i = 0; i < n; ++i) {
      HQ_ASSIGN_OR_RETURN(Datum v, ScalarBinaryTail(e, a.At(i), b.At(i)));
      out->Append(v);
    }
    return out;
  };
  const uint8_t* an = a.null_bytes().empty() ? nullptr : a.null_bytes().data();
  const uint8_t* bn = b.null_bytes().empty() ? nullptr : b.null_bytes().data();

  if (op == "IS_DISTINCT" || op == "IS_NOT_DISTINCT") {
    // Datum::DistinctEquals per cell: NULL matches only NULL, floats
    // compare as doubles with NaN equal to NaN.
    Column::Storage s = a.storage();
    if (s != b.storage() || s == Column::Storage::kMixed ||
        s == Column::Storage::kEmpty) {
      return per_row();
    }
    const bool want_equal = op == "IS_NOT_DISTINCT";
    std::vector<int64_t> out(n, 0);
    for (size_t i = 0; i < n; ++i) {
      bool a_null = an && an[i];
      bool b_null = bn && bn[i];
      bool eq;
      if (a_null || b_null) {
        eq = a_null == b_null;
      } else if (s == Column::Storage::kInt) {
        eq = a.ints()[i] == b.ints()[i];
      } else if (s == Column::Storage::kFloat) {
        eq = DistinctEqualsDouble(a.floats()[i], b.floats()[i]);
      } else {
        eq = a.strs()[i] == b.strs()[i];
      }
      out[i] = eq == want_equal ? 1 : 0;
    }
    return Column::FromInts(SqlType::kBoolean, std::move(out));
  }
  if (a.storage() == Column::Storage::kMixed ||
      b.storage() == Column::Storage::kMixed) {
    return per_row();
  }
  // An all-NULL operand nulls every remaining operator's result (the type
  // checks in the scalar path only fire when both sides are non-null).
  if (a.storage() == Column::Storage::kEmpty ||
      b.storage() == Column::Storage::kEmpty) {
    return Column::Constant(Datum::Null(), n);
  }

  bool a_str = a.storage() == Column::Storage::kString;
  bool b_str = b.storage() == Column::Storage::kString;

  int cmp_op = CmpOpIndex(op);
  if (cmp_op >= 0) {
    if (a_str != b_str) return per_row();  // errors on the right row
    std::vector<int64_t> out(n, 0);
    std::vector<uint8_t> nulls(n, 0);
    bool any_null = false;
    if (a_str) {
      const auto& av = a.strs();
      const auto& bv = b.strs();
      for (size_t i = 0; i < n; ++i) {
        if ((an && an[i]) || (bn && bn[i])) {
          nulls[i] = 1;
          any_null = true;
          continue;
        }
        out[i] = CmpHolds(cmp_op, av[i].compare(bv[i])) ? 1 : 0;
      }
    } else if (a.storage() == Column::Storage::kFloat ||
               b.storage() == Column::Storage::kFloat) {
      const double* af = a.floats();
      const double* bf = b.floats();
      const int64_t* ai = a.ints();
      const int64_t* bi = b.ints();
      bool af_ok = a.storage() == Column::Storage::kFloat;
      bool bf_ok = b.storage() == Column::Storage::kFloat;
      for (size_t i = 0; i < n; ++i) {
        if ((an && an[i]) || (bn && bn[i])) {
          nulls[i] = 1;
          any_null = true;
          continue;
        }
        double x = af_ok ? af[i] : static_cast<double>(ai[i]);
        double y = bf_ok ? bf[i] : static_cast<double>(bi[i]);
        out[i] = CmpHolds(cmp_op, Cmp3Double(x, y)) ? 1 : 0;
      }
    } else {
      const int64_t* ai = a.ints();
      const int64_t* bi = b.ints();
      for (size_t i = 0; i < n; ++i) {
        if ((an && an[i]) || (bn && bn[i])) {
          nulls[i] = 1;
          any_null = true;
          continue;
        }
        out[i] = CmpHolds(cmp_op, (ai[i] > bi[i]) - (ai[i] < bi[i])) ? 1 : 0;
      }
    }
    return Column::FromInts(SqlType::kBoolean, std::move(out),
                            any_null ? std::move(nulls)
                                     : std::vector<uint8_t>());
  }

  if (!IsArithOp(op)) return per_row();  // ||, LIKE
  SqlType at = a.value_type();
  SqlType bt = b.value_type();
  if ((!IsNumericType(at) && !IsTemporalType(at)) ||
      (!IsNumericType(bt) && !IsTemporalType(bt))) {
    return per_row();  // type error on the first both-non-null row
  }

  char oc = op[0];
  if (a.storage() == Column::Storage::kFloat ||
      b.storage() == Column::Storage::kFloat) {
    const double* af = a.floats();
    const double* bf = b.floats();
    const int64_t* ai = a.ints();
    const int64_t* bi = b.ints();
    bool af_ok = a.storage() == Column::Storage::kFloat;
    bool bf_ok = b.storage() == Column::Storage::kFloat;
    std::vector<double> out(n, 0);
    std::vector<uint8_t> nulls(n, 0);
    bool any_null = false;
    for (size_t i = 0; i < n; ++i) {
      if ((an && an[i]) || (bn && bn[i])) {
        nulls[i] = 1;
        any_null = true;
        continue;
      }
      double x = af_ok ? af[i] : static_cast<double>(ai[i]);
      double y = bf_ok ? bf[i] : static_cast<double>(bi[i]);
      switch (oc) {
        case '+':
          out[i] = x + y;
          break;
        case '-':
          out[i] = x - y;
          break;
        case '*':
          out[i] = x * y;
          break;
        case '/':
          out[i] = x / y;
          break;
        default:  // %
          if (y == 0) return ExecutionError("division by zero");
          out[i] = std::fmod(x, y);
          break;
      }
    }
    return Column::FromFloats(SqlType::kDouble, std::move(out),
                              any_null ? std::move(nulls)
                                       : std::vector<uint8_t>());
  }

  // Integer/temporal path; the result type is uniform per column pair,
  // mirroring NumericBinary's promotion.
  SqlType rt = SqlType::kBigInt;
  if (IsTemporalType(at) && !IsTemporalType(bt)) rt = at;
  if (IsTemporalType(bt) && !IsTemporalType(at)) rt = bt;
  if (IsTemporalType(at) && at == bt && op != "-") rt = at;
  if (op == "-" && IsTemporalType(at) && at == bt) rt = SqlType::kBigInt;
  if (op == "/" || op == "%") rt = SqlType::kBigInt;
  const int64_t* ai = a.ints();
  const int64_t* bi = b.ints();
  std::vector<int64_t> out(n, 0);
  std::vector<uint8_t> nulls(n, 0);
  bool any_null = false;
  for (size_t i = 0; i < n; ++i) {
    if ((an && an[i]) || (bn && bn[i])) {
      nulls[i] = 1;
      any_null = true;
      continue;
    }
    int64_t x = ai[i];
    int64_t y = bi[i];
    switch (oc) {
      case '+':
        out[i] = x + y;
        break;
      case '-':
        out[i] = x - y;
        break;
      case '*':
        out[i] = x * y;
        break;
      case '/':
        if (y == 0) return ExecutionError("division by zero");
        out[i] = x / y;  // PG: integer division truncates
        break;
      default:  // %
        if (y == 0) return ExecutionError("division by zero");
        out[i] = x % y;
        break;
    }
  }
  return Column::FromInts(rt, std::move(out),
                          any_null ? std::move(nulls)
                                   : std::vector<uint8_t>());
}

/// COALESCE over a batch. Every argument is evaluated over all n rows, as
/// EvalExpr evaluates every argument of every row, so errors surface on
/// the same inputs. Each cell then takes its first non-null argument.
/// Arguments sharing one storage class and value type copy payloads in a
/// tight loop; any other mix appends cell by cell, which types (or
/// degrades to kMixed) exactly as the per-row path does.
Result<ColumnPtr> CoalesceBatch(const Expr& e, const BatchCtx& ctx,
                                const uint32_t* sel, size_t n) {
  std::vector<ColumnPtr> args;  // all-NULL arguments are never picked
  bool uniform = true;
  for (const auto& arg : e.args) {
    HQ_ASSIGN_OR_RETURN(ColumnPtr c, EvalBatch(*arg, ctx, sel, n));
    if (c->storage() == Column::Storage::kEmpty) continue;
    if (c->storage() == Column::Storage::kMixed ||
        (!args.empty() && (c->storage() != args[0]->storage() ||
                           c->value_type() != args[0]->value_type()))) {
      uniform = false;
    }
    args.push_back(std::move(c));
  }

  // pick[i]: the first argument non-null at row i, or -1.
  std::vector<int32_t> pick(n, -1);
  bool any_value = false;
  bool any_null = false;
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < args.size(); ++k) {
      if (!args[k]->IsNull(i)) {
        pick[i] = static_cast<int32_t>(k);
        break;
      }
    }
    if (pick[i] < 0) {
      any_null = true;
    } else {
      any_value = true;
    }
  }
  if (!any_value) return Column::Constant(Datum::Null(), n);

  if (!uniform) {
    auto out = std::make_shared<Column>();
    out->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (pick[i] < 0) {
        out->AppendNull();
      } else {
        out->AppendFrom(*args[pick[i]], i);
      }
    }
    return out;
  }

  std::vector<uint8_t> nulls;
  if (any_null) {
    nulls.resize(n);
    for (size_t i = 0; i < n; ++i) nulls[i] = pick[i] < 0 ? 1 : 0;
  }
  const SqlType vt = args[0]->value_type();
  switch (args[0]->storage()) {
    case Column::Storage::kInt: {
      std::vector<int64_t> out(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (pick[i] >= 0) out[i] = args[pick[i]]->ints()[i];
      }
      return Column::FromInts(vt, std::move(out), std::move(nulls));
    }
    case Column::Storage::kFloat: {
      std::vector<double> out(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (pick[i] >= 0) out[i] = args[pick[i]]->floats()[i];
      }
      return Column::FromFloats(vt, std::move(out), std::move(nulls));
    }
    default: {  // kString
      std::vector<std::string> out(n);
      for (size_t i = 0; i < n; ++i) {
        if (pick[i] >= 0) out[i] = args[pick[i]]->strs()[i];
      }
      return Column::FromStrings(vt, std::move(out), std::move(nulls));
    }
  }
}

/// Whether `e` is a literal: a constant, or a cast or unary minus over one
/// (the serializer spells literals 'S1'::varchar, parsers spell -5 as -(5)).
bool IsLiteralTree(const Expr& e) {
  if (e.kind == ExprKind::kConst) return true;
  return (e.kind == ExprKind::kCast ||
          (e.kind == ExprKind::kUnary && e.op == "-")) &&
         e.lhs != nullptr && IsLiteralTree(*e.lhs);
}

/// A literal folded once, with EvalExpr itself, so the value is the one
/// every row would compute. nullopt when `e` is not a literal or its fold
/// fails; the per-row path then reports that error on the row reaching it.
std::optional<Datum> FoldLiteral(const Expr& e) {
  if (!IsLiteralTree(e)) return std::nullopt;
  Result<Datum> v = EvalExpr(e, EvalCtx{});
  if (!v.ok()) return std::nullopt;
  return *std::move(v);
}

/// Whether a non-NULL literal compares with the cells of a column of
/// storage `st` without a type error (CompareDatums: strings only with
/// strings).
bool ComparableWith(Column::Storage st, const Datum& lit) {
  const bool str = IsStringType(lit.type());
  return st == Column::Storage::kString
             ? str
             : (st == Column::Storage::kInt || st == Column::Storage::kFloat) &&
                   !str;
}

/// Calls fn(cmp) with `cmp(r)`, whose sign is that of Datum::Compare(cell
/// r, lit), typed once for the column's storage (kInt, kFloat or kString)
/// and the literal's class, as BinaryKernel types a column against a
/// constant. With `eq_only` a string cell only reports equal (0) or not,
/// which is all `=` and `<>` read.
template <typename Fn>
void WithCellCmp(const Column& c, const Datum& lit, bool eq_only, Fn&& fn) {
  switch (c.storage()) {
    case Column::Storage::kInt: {
      const int64_t* v = c.ints();
      if (IsFloatDatum(lit)) {
        const double b = lit.AsDouble();
        fn([v, b](uint32_t r) {
          return Cmp3Double(static_cast<double>(v[r]), b);
        });
      } else {
        const int64_t b = lit.AsInt();
        fn([v, b](uint32_t r) { return (v[r] > b) - (v[r] < b); });
      }
      return;
    }
    case Column::Storage::kFloat: {
      const double* v = c.floats();
      const double b = lit.AsDouble();
      fn([v, b](uint32_t r) { return Cmp3Double(v[r], b); });
      return;
    }
    default: {
      const std::string* v = c.strs().data();
      const std::string* b = &lit.AsString();
      if (eq_only) {
        fn([v, b](uint32_t r) { return v[r] == *b ? 0 : 1; });
      } else {
        fn([v, b](uint32_t r) { return v[r].compare(*b); });
      }
      return;
    }
  }
}

/// Calls fn(holds) with `holds(cmp)`: whether comparison `op` (CmpOpIndex)
/// holds for a three-way result, fixed outside the row loop.
template <typename Fn>
void WithCmpOp(int op, Fn&& fn) {
  switch (op) {
    case 0: return fn([](int c) { return c == 0; });
    case 1: return fn([](int c) { return c != 0; });
    case 2: return fn([](int c) { return c < 0; });
    case 3: return fn([](int c) { return c > 0; });
    case 4: return fn([](int c) { return c <= 0; });
    default: return fn([](int c) { return c >= 0; });
  }
}

/// A predicate's value on one row under three-valued logic.
enum class Truth : uint8_t { kFalse, kTrue, kNull };

inline Truth TruthOf(bool b) { return b ? Truth::kTrue : Truth::kFalse; }

/// Calls emit(i, row, truth) for rows sel[0..n) (sel == nullptr: rows
/// [0, n)) in ascending order: NULL where the column's null byte is set,
/// else test(row). The common no-selection, no-NULL case loops without
/// either check.
template <typename Test, typename Emit>
void ForRows(const uint32_t* sel, size_t n, const uint8_t* nulls, Test test,
             Emit emit) {
  if (sel == nullptr && nulls == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = static_cast<uint32_t>(i);
      emit(i, r, test(r));
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel ? sel[i] : static_cast<uint32_t>(i);
    emit(i, r, nulls != nullptr && nulls[r] != 0 ? Truth::kNull : test(r));
  }
}

/// A leaf predicate bound to one column of the batch's relation, which it
/// reads in place: `col op lit` (the literal on either side),
/// `col [NOT] IN (lits)`, `col [NOT] BETWEEN lit AND lit` and
/// `col IS [NOT] NULL`. It binds only where its typed loop gives what
/// EvalExpr gives on every row and cannot fail; anything else (a kMixed
/// column, a literal class the comparison rejects, a literal whose fold
/// fails) stays on the general path, which owns the errors.
struct LeafPred {
  enum class Kind : uint8_t { kCmp, kBetween, kIn, kIsNull, kAllNull };
  Kind kind = Kind::kAllNull;
  const Column* col = nullptr;
  int op = 0;            ///< kCmp, with the literal on the right
  bool negated = false;  ///< kBetween, kIn, kIsNull
  Datum lo, hi;          ///< kCmp literal (lo); kBetween bounds
  /// kIn: the non-NULL items that can equal a cell (Datum::DistinctEquals
  /// never matches across the string/number divide, so the rest are
  /// dropped), and whether a NULL item was listed.
  std::vector<int64_t> int_items;
  std::vector<double> float_items;
  std::vector<std::string> str_items;
  bool null_item = false;

  /// Calls emit(i, row, truth) for rows sel[0..n) (sel == nullptr: rows
  /// [0, n)) in ascending order; the storage, the operator and the
  /// literals are dispatched once, outside the row loop.
  template <typename Emit>
  void Run(const uint32_t* sel, size_t n, Emit emit) const {
    const uint8_t* nulls = NullBytesOf(*col);
    switch (kind) {
      case Kind::kAllNull:
        ForRows(sel, n, nullptr, [](uint32_t) { return Truth::kNull; },
                emit);
        return;
      case Kind::kIsNull: {
        const Column* c = col;
        const bool neg = negated;
        ForRows(sel, n, nullptr,
                [c, neg](uint32_t r) { return TruthOf(c->IsNull(r) != neg); },
                emit);
        return;
      }
      case Kind::kCmp:
        WithCmpOp(op, [&](auto holds) {
          WithCellCmp(*col, lo, op <= 1, [&](auto cmp) {
            ForRows(sel, n, nulls,
                    [holds, cmp](uint32_t r) { return TruthOf(holds(cmp(r))); },
                    emit);
          });
        });
        return;
      case Kind::kBetween: {
        const bool neg = negated;
        WithCellCmp(*col, lo, false, [&](auto cmp_lo) {
          WithCellCmp(*col, hi, false, [&](auto cmp_hi) {
            ForRows(sel, n, nulls,
                    [cmp_lo, cmp_hi, neg](uint32_t r) {
                      return TruthOf((cmp_lo(r) >= 0 && cmp_hi(r) <= 0) !=
                                     neg);
                    },
                    emit);
          });
        });
        return;
      }
      case Kind::kIn: {
        // A match decides; otherwise a NULL item makes the answer NULL.
        const Truth miss = null_item ? Truth::kNull : TruthOf(negated);
        const Truth hit = TruthOf(!negated);
        switch (col->storage()) {
          case Column::Storage::kInt: {
            const int64_t* v = col->ints();
            ForRows(sel, n, nulls,
                    [&, v](uint32_t r) {
                      for (int64_t x : int_items) {
                        if (v[r] == x) return hit;
                      }
                      for (double x : float_items) {
                        if (DistinctEqualsDouble(static_cast<double>(v[r]),
                                                 x)) {
                          return hit;
                        }
                      }
                      return miss;
                    },
                    emit);
            return;
          }
          case Column::Storage::kFloat: {
            const double* v = col->floats();
            ForRows(sel, n, nulls,
                    [&, v](uint32_t r) {
                      for (double x : float_items) {
                        if (DistinctEqualsDouble(v[r], x)) return hit;
                      }
                      return miss;
                    },
                    emit);
            return;
          }
          default: {
            const std::string* v = col->strs().data();
            ForRows(sel, n, nulls,
                    [&, v](uint32_t r) {
                      for (const std::string& x : str_items) {
                        if (v[r] == x) return hit;
                      }
                      return miss;
                    },
                    emit);
            return;
          }
        }
      }
    }
  }

  /// Appends the rows where the predicate is TRUE.
  void Filter(const uint32_t* sel, size_t n, SelVector* out) const {
    const size_t base = out->size();
    out->resize(base + n);
    uint32_t* w = out->data() + base;
    size_t k = 0;
    Run(sel, n, [w, &k](size_t, uint32_t r, Truth t) {
      w[k] = r;
      k += t == Truth::kTrue;
    });
    out->resize(base + k);
  }

  /// The predicate's boolean column over the rows, built as the general
  /// path builds it: BinaryKernel's for a comparison (an all-NULL operand
  /// gives an all-NULL constant), EvalBatch's null test for IS NULL, and
  /// the per-row appends of EvalBatchFallback for IN and BETWEEN.
  ColumnPtr ToColumn(const uint32_t* sel, size_t n) const {
    if (kind == Kind::kAllNull) return Column::Constant(Datum::Null(), n);
    std::vector<int64_t> out(n, 0);
    std::vector<uint8_t> nulls(n, 0);
    int64_t* o = out.data();
    uint8_t* nb = nulls.data();
    size_t null_count = 0;
    Run(sel, n, [o, nb, &null_count](size_t i, uint32_t, Truth t) {
      o[i] = t == Truth::kTrue;
      nb[i] = t == Truth::kNull;
      null_count += t == Truth::kNull;
    });
    if (null_count == n && (kind == Kind::kIn || kind == Kind::kBetween)) {
      return Column::Constant(Datum::Null(), n);
    }
    if (null_count == 0) nulls.clear();
    return Column::FromInts(SqlType::kBoolean, std::move(out),
                            std::move(nulls));
  }
};

/// Binds `e` as a leaf predicate over ctx.rel, or nullopt (see LeafPred).
std::optional<LeafPred> BindLeaf(const Expr& e, const BatchCtx& ctx) {
  using Kind = LeafPred::Kind;
  if (ctx.rel == nullptr || e.lhs == nullptr) return std::nullopt;
  LeafPred p;
  p.negated = e.negated;
  const Expr* colref = e.lhs.get();
  std::vector<Datum> lits;  // compared with the cells: class-checked below
  switch (e.kind) {
    case ExprKind::kIsNull:
      p.kind = Kind::kIsNull;
      break;
    case ExprKind::kBinary: {
      p.op = CmpOpIndex(e.op);
      if (p.op < 0 || e.rhs == nullptr) return std::nullopt;
      std::optional<Datum> lit;
      if (e.lhs->kind == ExprKind::kColRef) lit = FoldLiteral(*e.rhs);
      if (!lit && e.rhs->kind == ExprKind::kColRef) {
        lit = FoldLiteral(*e.lhs);
        colref = e.rhs.get();
        p.op = FlipCmpOp(p.op);
      }
      if (!lit) return std::nullopt;
      p.kind = Kind::kCmp;
      p.lo = *std::move(lit);
      lits = {p.lo};
      break;
    }
    case ExprKind::kBetween: {
      if (e.low == nullptr || e.high == nullptr) return std::nullopt;
      std::optional<Datum> lo = FoldLiteral(*e.low);
      std::optional<Datum> hi = FoldLiteral(*e.high);
      if (!lo || !hi) return std::nullopt;
      p.kind = Kind::kBetween;
      p.lo = *std::move(lo);
      p.hi = *std::move(hi);
      lits = {p.lo, p.hi};
      break;
    }
    case ExprKind::kInList:
      p.kind = Kind::kIn;
      break;
    default:
      return std::nullopt;
  }
  if (colref->kind != ExprKind::kColRef) return std::nullopt;
  Result<int> idx = ResolveColRef(*colref, *ctx.rel);
  if (!idx.ok()) return std::nullopt;
  p.col = ctx.rel->columns[*idx].get();
  if (p.col->size() != ctx.rel->row_count) return std::nullopt;
  const Column::Storage st = p.col->storage();
  if (p.kind == Kind::kIsNull) return p;
  if (st == Column::Storage::kMixed) return std::nullopt;
  if (p.kind == Kind::kIn) {
    for (const auto& item : e.args) {
      std::optional<Datum> x = FoldLiteral(*item);
      if (!x) return std::nullopt;
      if (x->is_null()) {
        p.null_item = true;
      } else if (IsStringType(x->type())) {
        p.str_items.push_back(x->AsString());
      } else if (IsFloatDatum(*x) || st == Column::Storage::kFloat) {
        p.float_items.push_back(x->AsDouble());
      } else {
        p.int_items.push_back(x->AsInt());
      }
    }
  }
  // A NULL cell or a NULL literal makes the comparison NULL before any
  // type check, so an all-NULL column or a NULL literal never errors.
  if (st == Column::Storage::kEmpty) {
    p.kind = Kind::kAllNull;
    return p;
  }
  for (const Datum& lit : lits) {
    if (lit.is_null()) {
      p.kind = Kind::kAllNull;
      return p;
    }
  }
  for (const Datum& lit : lits) {
    if (!ComparableWith(st, lit)) return std::nullopt;
  }
  return p;
}

/// Merges two disjoint ascending row lists into *out.
void MergeAscending(const SelVector& a, const SelVector& b, SelVector* out) {
  out->reserve(out->size() + a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(*out));
}

}  // namespace

Result<ColumnPtr> EvalBatch(const Expr& e, const BatchCtx& ctx,
                            const uint32_t* sel, size_t n) {
  switch (e.kind) {
    case ExprKind::kConst:
      return Column::Constant(e.datum, n);

    case ExprKind::kColRef: {
      if (ctx.rel == nullptr) {
        return BindError(StrCat("column \"", e.column,
                                "\" referenced without a FROM clause"));
      }
      HQ_ASSIGN_OR_RETURN(int idx, ResolveColRef(e, *ctx.rel));
      const ColumnPtr& col = ctx.rel->columns[idx];
      if (sel == nullptr && n == col->size()) return col;  // zero copy
      return col->Gather(sel, n);
    }

    case ExprKind::kStar:
      return BindError("'*' is only valid in select lists and COUNT(*)");

    case ExprKind::kUnary: {
      HQ_ASSIGN_OR_RETURN(ColumnPtr a, EvalBatch(*e.lhs, ctx, sel, n));
      if (e.op == "NOT") {
        std::vector<int64_t> out(n, 0);
        std::vector<uint8_t> nulls(n, 0);
        bool any_null = false;
        for (size_t i = 0; i < n; ++i) {
          if (a->IsNull(i)) {
            nulls[i] = 1;
            any_null = true;
          } else {
            out[i] = a->TruthAt(i) ? 0 : 1;
          }
        }
        return Column::FromInts(SqlType::kBoolean, std::move(out),
                                any_null ? std::move(nulls)
                                         : std::vector<uint8_t>());
      }
      // Unary minus.
      switch (a->storage()) {
        case Column::Storage::kEmpty:
          return Column::Constant(Datum::Null(), n);
        case Column::Storage::kInt: {
          SqlType rt = a->value_type() == SqlType::kBoolean
                           ? SqlType::kBigInt
                           : a->value_type();
          std::vector<int64_t> out(n, 0);
          const int64_t* av = a->ints();
          for (size_t i = 0; i < n; ++i) out[i] = -av[i];
          return Column::FromInts(rt, std::move(out), a->null_bytes());
        }
        case Column::Storage::kFloat: {
          std::vector<double> out(n, 0);
          const double* av = a->floats();
          for (size_t i = 0; i < n; ++i) out[i] = -av[i];
          return Column::FromFloats(SqlType::kDouble, std::move(out),
                                    a->null_bytes());
        }
        default: {
          auto out = std::make_shared<Column>();
          for (size_t i = 0; i < n; ++i) {
            Datum v = a->At(i);
            if (v.is_null()) {
              out->AppendNull();
            } else if (IsFloatDatum(v)) {
              out->Append(Datum::Double(-v.AsDouble()));
            } else {
              out->Append(Datum::Int(v.type() == SqlType::kBoolean
                                         ? SqlType::kBigInt
                                         : v.type(),
                                     -v.AsInt()));
            }
          }
          return out;
        }
      }
    }

    case ExprKind::kBinary: {
      if (e.op == "AND" || e.op == "OR") {
        bool is_and = e.op == "AND";
        HQ_ASSIGN_OR_RETURN(ColumnPtr a, EvalBatch(*e.lhs, ctx, sel, n));
        // The right side is evaluated exactly where short-circuit
        // evaluation would reach it: AND -> lhs not false, OR -> lhs not
        // true. This keeps data-dependent rhs errors on the same rows.
        SelVector need_abs;
        std::vector<uint32_t> need_loc;
        for (size_t i = 0; i < n; ++i) {
          bool t = a->TruthAt(i);
          bool decided = is_and ? (!a->IsNull(i) && !t) : t;
          if (!decided) {
            need_abs.push_back(sel ? sel[i] : static_cast<uint32_t>(i));
            need_loc.push_back(static_cast<uint32_t>(i));
          }
        }
        HQ_ASSIGN_OR_RETURN(
            ColumnPtr b,
            EvalBatch(*e.rhs, ctx, need_abs.data(), need_abs.size()));
        std::vector<int64_t> out(n, is_and ? 0 : 1);
        std::vector<uint8_t> nulls(n, 0);
        bool any_null = false;
        for (size_t k = 0; k < need_loc.size(); ++k) {
          size_t i = need_loc[k];
          bool bt = b->TruthAt(k);
          bool bn = b->IsNull(k);
          bool a_null = a->IsNull(i);
          if (is_and) {
            if (!bn && !bt) {
              out[i] = 0;
            } else if (a_null || bn) {
              nulls[i] = 1;
              any_null = true;
            } else {
              out[i] = 1;
            }
          } else {
            if (bt) {
              out[i] = 1;
            } else if (a_null || bn) {
              nulls[i] = 1;
              any_null = true;
            } else {
              out[i] = 0;
            }
          }
        }
        return Column::FromInts(SqlType::kBoolean, std::move(out),
                                any_null ? std::move(nulls)
                                         : std::vector<uint8_t>());
      }
      if (auto leaf = BindLeaf(e, ctx)) return leaf->ToColumn(sel, n);
      HQ_ASSIGN_OR_RETURN(ColumnPtr a, EvalBatch(*e.lhs, ctx, sel, n));
      HQ_ASSIGN_OR_RETURN(ColumnPtr b, EvalBatch(*e.rhs, ctx, sel, n));
      return BinaryKernel(e, *a, *b, n);
    }

    case ExprKind::kIsNull: {
      if (auto leaf = BindLeaf(e, ctx)) return leaf->ToColumn(sel, n);
      HQ_ASSIGN_OR_RETURN(ColumnPtr a, EvalBatch(*e.lhs, ctx, sel, n));
      std::vector<int64_t> out(n, 0);
      for (size_t i = 0; i < n; ++i) {
        bool isn = a->IsNull(i);
        out[i] = (e.negated ? !isn : isn) ? 1 : 0;
      }
      return Column::FromInts(SqlType::kBoolean, std::move(out));
    }

    case ExprKind::kFuncCall: {
      if (IsAggregateFunction(e.func_name)) {
        // The missing-context error is per-row (the row loop of the
        // sequential path): zero rows never error.
        auto out = std::make_shared<Column>();
        for (size_t i = 0; i < n; ++i) {
          size_t row = sel ? sel[i] : i;
          if (ctx.agg_rows != nullptr) {
            const auto& m = (*ctx.agg_rows)[row];
            auto it = m.find(&e);
            if (it != m.end()) {
              out->Append(it->second);
              continue;
            }
          }
          return BindError(StrCat("aggregate ", e.func_name,
                                  " used outside of a grouped context"));
        }
        return out;
      }
      if (e.func_name == "coalesce") return CoalesceBatch(e, ctx, sel, n);
      return EvalBatchFallback(e, ctx, sel, n);
    }

    case ExprKind::kWindow: {
      // Missing window values likewise only error when a row asks.
      if (ctx.window_values != nullptr) {
        auto it = ctx.window_values->find(&e);
        if (it != ctx.window_values->end()) {
          const ColumnPtr& col = it->second;
          if (sel == nullptr && n == col->size()) return col;  // zero copy
          return col->Gather(sel, n);
        }
      }
      if (n == 0) return std::make_shared<Column>();
      return BindError(StrCat("window function ", e.func_name,
                              " used in an unsupported position"));
    }

    case ExprKind::kInList:
    case ExprKind::kBetween:
      if (auto leaf = BindLeaf(e, ctx)) return leaf->ToColumn(sel, n);
      return EvalBatchFallback(e, ctx, sel, n);

    case ExprKind::kCast:
      // A cast of a literal is folded once for the batch (zero rows cast
      // nothing, so they also raise nothing).
      if (n > 0) {
        if (auto v = FoldLiteral(e)) return Column::Constant(*v, n);
      }
      return EvalBatchFallback(e, ctx, sel, n);

    case ExprKind::kCase:
      return EvalBatchFallback(e, ctx, sel, n);
  }
  return InternalError("unhandled expression kind");
}

Status EvalFilter(const Expr& e, const BatchCtx& ctx, const uint32_t* sel,
                  size_t n, SelVector* out) {
  if (auto leaf = BindLeaf(e, ctx)) {
    leaf->Filter(sel, n, out);
    return Status::OK();
  }
  if (e.kind == ExprKind::kBinary && (e.op == "AND" || e.op == "OR")) {
    bool is_and = e.op == "AND";
    if (auto rhs = BindLeaf(*e.rhs, ctx)) {
      // A leaf cannot fail, so it need not run on every row short-circuit
      // evaluation reaches: AND narrows the left side's survivors, OR
      // tests the rows the left side left not TRUE.
      SelVector lhs_true;
      HQ_RETURN_IF_ERROR(EvalFilter(*e.lhs, ctx, sel, n, &lhs_true));
      if (is_and) {
        rhs->Filter(lhs_true.data(), lhs_true.size(), out);
        return Status::OK();
      }
      SelVector rest, rhs_true;
      rest.reserve(n - lhs_true.size());
      size_t k = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t row = sel ? sel[i] : static_cast<uint32_t>(i);
        if (k < lhs_true.size() && lhs_true[k] == row) {
          ++k;
        } else {
          rest.push_back(row);
        }
      }
      rhs->Filter(rest.data(), rest.size(), &rhs_true);
      MergeAscending(lhs_true, rhs_true, out);
      return Status::OK();
    }
    HQ_ASSIGN_OR_RETURN(ColumnPtr a, EvalBatch(*e.lhs, ctx, sel, n));
    SelVector lhs_true, cand;
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = sel ? sel[i] : static_cast<uint32_t>(i);
      bool t = a->TruthAt(i);
      if (t) lhs_true.push_back(row);
      bool decided = is_and ? (!a->IsNull(i) && !t) : t;
      if (!decided) cand.push_back(row);
    }
    SelVector rhs_true;
    HQ_RETURN_IF_ERROR(
        EvalFilter(*e.rhs, ctx, cand.data(), cand.size(), &rhs_true));
    if (is_and) {
      // TRUE AND TRUE: intersect two ascending lists.
      size_t i = 0, j = 0;
      while (i < lhs_true.size() && j < rhs_true.size()) {
        if (lhs_true[i] < rhs_true[j]) {
          ++i;
        } else if (lhs_true[i] > rhs_true[j]) {
          ++j;
        } else {
          out->push_back(lhs_true[i]);
          ++i;
          ++j;
        }
      }
    } else {
      // lhs-true and rhs-true are disjoint (rhs only ran where lhs was not
      // true).
      MergeAscending(lhs_true, rhs_true, out);
    }
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(ColumnPtr col, EvalBatch(e, ctx, sel, n));
  for (size_t i = 0; i < n; ++i) {
    if (col->TruthAt(i)) {
      out->push_back(sel ? sel[i] : static_cast<uint32_t>(i));
    }
  }
  return Status::OK();
}

}  // namespace sqldb
}  // namespace hyperq
