#include "qlang/ast.h"

#include "common/strings.h"

namespace hyperq {

namespace {
std::shared_ptr<AstNode> NewNode(AstKind kind, SourceLoc loc) {
  auto node = std::make_shared<AstNode>();
  node->kind = kind;
  node->loc = loc;
  return node;
}
}  // namespace

AstPtr MakeLiteral(QValue v, SourceLoc loc) {
  auto node = NewNode(AstKind::kLiteral, loc);
  node->literal = std::move(v);
  return node;
}

AstPtr MakeVarRef(std::string name, SourceLoc loc) {
  auto node = NewNode(AstKind::kVarRef, loc);
  node->name = std::move(name);
  return node;
}

AstPtr MakeFnRef(std::string op, SourceLoc loc) {
  auto node = NewNode(AstKind::kFnRef, loc);
  node->name = std::move(op);
  return node;
}

AstPtr MakeAdverbed(std::string adverb, AstPtr fn, SourceLoc loc) {
  auto node = NewNode(AstKind::kAdverbed, loc);
  node->name = std::move(adverb);
  node->child = std::move(fn);
  return node;
}

AstPtr MakeDyad(std::string op, AstPtr lhs, AstPtr rhs, SourceLoc loc) {
  auto node = NewNode(AstKind::kDyad, loc);
  node->name = std::move(op);
  node->lhs = std::move(lhs);
  node->rhs = std::move(rhs);
  return node;
}

AstPtr MakeApply(AstPtr fn, std::vector<AstPtr> args, SourceLoc loc) {
  auto node = NewNode(AstKind::kApply, loc);
  node->child = std::move(fn);
  node->args = std::move(args);
  return node;
}

AstPtr MakeAssign(std::string name, AstPtr value, bool global, SourceLoc loc) {
  auto node = NewNode(global ? AstKind::kGlobalAssign : AstKind::kAssign, loc);
  node->name = std::move(name);
  node->child = std::move(value);
  return node;
}

AstPtr MakeReturn(AstPtr value, SourceLoc loc) {
  auto node = NewNode(AstKind::kReturn, loc);
  node->child = std::move(value);
  return node;
}

AstPtr MakeCond(std::vector<AstPtr> branches, SourceLoc loc) {
  auto node = NewNode(AstKind::kCond, loc);
  node->args = std::move(branches);
  return node;
}

AstPtr MakeListLit(std::vector<AstPtr> items, SourceLoc loc) {
  auto node = NewNode(AstKind::kListLit, loc);
  node->args = std::move(items);
  return node;
}

AstPtr MakeSeq(std::vector<AstPtr> stmts, SourceLoc loc) {
  auto node = NewNode(AstKind::kSeq, loc);
  node->args = std::move(stmts);
  return node;
}

namespace {

std::string NamedExprsToString(const std::vector<NamedExpr>& exprs) {
  std::string out;
  for (const auto& ne : exprs) {
    out += " (";
    out += ne.name.empty() ? "_" : ne.name;
    out += " ";
    out += AstToString(ne.expr);
    out += ")";
  }
  return out;
}

}  // namespace

std::string AstToString(const AstPtr& node) {
  if (!node) return "nil";
  switch (node->kind) {
    case AstKind::kLiteral:
      return StrCat("(lit ", node->literal.ToString(), ")");
    case AstKind::kVarRef:
      return StrCat("(var ", node->name, ")");
    case AstKind::kFnRef:
      return StrCat("(fn ", node->name, ")");
    case AstKind::kAdverbed:
      return StrCat("(adv ", node->name, " ", AstToString(node->child), ")");
    case AstKind::kDyad:
      return StrCat("(dyad ", node->name, " ", AstToString(node->lhs), " ",
                    AstToString(node->rhs), ")");
    case AstKind::kApply: {
      std::string out = StrCat("(apply ", AstToString(node->child));
      for (const auto& a : node->args) out += StrCat(" ", AstToString(a));
      return out + ")";
    }
    case AstKind::kLambda: {
      std::string out = "(lambda [" + Join(node->params, ";") + "]";
      for (const auto& s : node->body) out += StrCat(" ", AstToString(s));
      return out + ")";
    }
    case AstKind::kAssign:
      return StrCat("(assign ", node->name, " ", AstToString(node->child),
                    ")");
    case AstKind::kGlobalAssign:
      return StrCat("(gassign ", node->name, " ", AstToString(node->child),
                    ")");
    case AstKind::kReturn:
      return StrCat("(return ", AstToString(node->child), ")");
    case AstKind::kCond: {
      std::string out = "(cond";
      for (const auto& a : node->args) out += StrCat(" ", AstToString(a));
      return out + ")";
    }
    case AstKind::kListLit: {
      std::string out = "(list";
      for (const auto& a : node->args) out += StrCat(" ", AstToString(a));
      return out + ")";
    }
    case AstKind::kSeq: {
      std::string out = "(seq";
      for (const auto& a : node->args) out += StrCat(" ", AstToString(a));
      return out + ")";
    }
    case AstKind::kTableLit: {
      std::string out = "(tablelit keys";
      out += NamedExprsToString(node->key_cols);
      out += " cols";
      out += NamedExprsToString(node->value_cols);
      return out + ")";
    }
    case AstKind::kQuery: {
      const char* kind = "select";
      if (node->query_kind == QueryKind::kExec) kind = "exec";
      if (node->query_kind == QueryKind::kUpdate) kind = "update";
      if (node->query_kind == QueryKind::kDelete) kind = "delete";
      std::string out = StrCat("(", kind);
      out += NamedExprsToString(node->select_list);
      if (!node->by_list.empty()) {
        out += " by";
        out += NamedExprsToString(node->by_list);
      }
      out += StrCat(" from ", AstToString(node->from));
      if (!node->where_list.empty()) {
        out += " where";
        for (const auto& w : node->where_list) {
          out += StrCat(" ", AstToString(w));
        }
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace hyperq
