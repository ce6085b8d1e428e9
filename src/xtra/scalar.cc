#include "xtra/scalar.h"

#include "common/strings.h"

namespace hyperq {
namespace xtra {

ScalarPtr MakeConst(QValue v) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = ScalarKind::kConst;
  e->type = v.type();
  e->nullable = v.IsNullAtom();
  e->value = std::move(v);
  return e;
}

ScalarPtr MakeColRef(ColId id, std::string name, QType type, bool nullable) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = ScalarKind::kColRef;
  e->col = id;
  e->col_name = std::move(name);
  e->type = type;
  e->nullable = nullable;
  return e;
}

ScalarPtr MakeFunc(std::string func, std::vector<ScalarPtr> args,
                   QType type) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = ScalarKind::kFunc;
  e->func = std::move(func);
  e->type = type;
  bool nullable = false;
  for (const auto& a : args) nullable |= a->nullable;
  e->nullable = nullable;
  e->args = std::move(args);
  return e;
}

ScalarPtr MakeAgg(std::string func, std::vector<ScalarPtr> args,
                  QType type) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = ScalarKind::kAgg;
  e->func = std::move(func);
  e->type = type;
  e->args = std::move(args);
  e->nullable = true;  // empty group -> NULL
  return e;
}

ScalarPtr MakeCast(ScalarPtr arg, QType to) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = ScalarKind::kCast;
  e->type = to;
  e->cast_to = to;
  e->nullable = arg->nullable;
  e->args.push_back(std::move(arg));
  return e;
}

std::string ScalarToString(const ScalarPtr& e) {
  if (!e) return "nil";
  switch (e->kind) {
    case ScalarKind::kConst:
      return StrCat("(const ", e->value.ToString(), ")");
    case ScalarKind::kColRef:
      return StrCat("(col ", e->col, " ", e->col_name, ")");
    case ScalarKind::kCast:
      return StrCat("(cast ", QTypeName(e->cast_to), " ",
                    ScalarToString(e->args[0]), ")");
    case ScalarKind::kCase: {
      std::string out = "(case";
      for (const auto& a : e->args) out += StrCat(" ", ScalarToString(a));
      return out + ")";
    }
    case ScalarKind::kAgg:
    case ScalarKind::kWindow:
    case ScalarKind::kFunc: {
      std::string tag = e->kind == ScalarKind::kAgg
                            ? "agg "
                            : (e->kind == ScalarKind::kWindow ? "win " : "");
      std::string out = StrCat("(", tag, e->func);
      for (const auto& a : e->args) out += StrCat(" ", ScalarToString(a));
      return out + ")";
    }
  }
  return "?";
}

void CollectColumnRefs(const ScalarPtr& e, std::vector<ColId>* out) {
  if (!e) return;
  if (e->kind == ScalarKind::kColRef) {
    out->push_back(e->col);
    return;
  }
  for (const auto& a : e->args) CollectColumnRefs(a, out);
  for (const auto& p : e->partition_by) CollectColumnRefs(p, out);
  for (const auto& [o, _] : e->order_by) CollectColumnRefs(o, out);
}

ScalarPtr RewriteScalar(const ScalarPtr& e, ScalarRewriteFn fn, void* arg) {
  if (!e) return e;
  auto copy = std::make_shared<ScalarExpr>(*e);
  bool changed = false;
  for (auto& a : copy->args) {
    ScalarPtr na = RewriteScalar(a, fn, arg);
    changed |= na != a;
    a = na;
  }
  for (auto& p : copy->partition_by) {
    ScalarPtr np = RewriteScalar(p, fn, arg);
    changed |= np != p;
    p = np;
  }
  for (auto& [o, asc] : copy->order_by) {
    ScalarPtr no = RewriteScalar(o, fn, arg);
    changed |= no != o;
    o = no;
  }
  ScalarPtr base = changed ? ScalarPtr(copy) : e;
  ScalarPtr replaced = fn(base, arg);
  return replaced ? replaced : base;
}

}  // namespace xtra
}  // namespace hyperq
