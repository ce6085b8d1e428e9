#ifndef HYPERQ_QLANG_AST_H_
#define HYPERQ_QLANG_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "qlang/token.h"
#include "qval/qvalue.h"

namespace hyperq {

/// Kinds of Q AST nodes. The AST mirrors §3.2.1: literals, variables,
/// monadic/dyadic operators, application, lambdas, assignments and the
/// select/exec/update/delete query templates. The parser performs no type
/// inference; types are resolved later by the binder (§3.2.2) or the
/// interpreter.
enum class AstKind {
  kLiteral,
  kVarRef,
  kFnRef,      ///< A verb used as a value, e.g. the `+` in `+/`.
  kAdverbed,   ///< adverb applied to a function expression: f', f/, f\:...
  kDyad,       ///< x op y (evaluated right-to-left, no precedence).
  kApply,      ///< f[a;b;...] or juxtaposition f x (also list indexing).
  kLambda,
  kAssign,       ///< name: expr (scope-local).
  kGlobalAssign, ///< name:: expr (amends the global/server scope).
  kQuery,        ///< select/exec/update/delete template.
  kTableLit,     ///< ([k1:...] c1:...; c2:...).
  kListLit,      ///< (e1;e2;...).
  kCond,         ///< $[c;t;f;...].
  kReturn,       ///< :expr inside a lambda body.
  kSeq,          ///< statement sequence (program / lambda body).
};

struct AstNode;
using AstPtr = std::shared_ptr<const AstNode>;

/// An optionally named expression in a select/by list: `px: max Price`.
struct NamedExpr {
  std::string name;  ///< Empty means derive from the expression.
  AstPtr expr;
};

enum class QueryKind { kSelect, kExec, kUpdate, kDelete };

/// Single node type with per-kind payloads: keeps traversal code simple and
/// avoids a visitor hierarchy for a tree this small.
struct AstNode {
  AstKind kind;
  SourceLoc loc;

  // kLiteral
  QValue literal;

  // kVarRef / kFnRef: name or verb spelling; kAdverbed: adverb spelling.
  std::string name;

  // kDyad: name=op, lhs/rhs. kAdverbed: child=fn. kAssign: name, child=value.
  // kReturn: child. kApply: child=callee, args. kCond: args=branches.
  // kListLit/kSeq: args=items.
  AstPtr lhs;
  AstPtr rhs;
  AstPtr child;
  std::vector<AstPtr> args;

  // kLambda
  std::vector<std::string> params;
  std::vector<AstPtr> body;
  std::string source;  ///< Verbatim lambda text (stored per §4.3).

  // kQuery
  QueryKind query_kind = QueryKind::kSelect;
  /// select[n] / select[n;>col] paging: optional row limit (negative =
  /// last n) and optional ordering column with direction.
  AstPtr query_limit;
  std::string query_order_col;
  int query_order_dir = 0;  ///< 0 none, +1 ascending (<), -1 descending (>)
  std::vector<NamedExpr> select_list;
  std::vector<NamedExpr> by_list;
  std::vector<AstPtr> where_list;
  AstPtr from;
  std::vector<std::string> delete_cols;

  // kTableLit
  std::vector<NamedExpr> key_cols;
  std::vector<NamedExpr> value_cols;
};

/// Factory helpers (all return shared immutable nodes).
AstPtr MakeLiteral(QValue v, SourceLoc loc);
AstPtr MakeVarRef(std::string name, SourceLoc loc);
AstPtr MakeFnRef(std::string op, SourceLoc loc);
AstPtr MakeAdverbed(std::string adverb, AstPtr fn, SourceLoc loc);
AstPtr MakeDyad(std::string op, AstPtr lhs, AstPtr rhs, SourceLoc loc);
AstPtr MakeApply(AstPtr fn, std::vector<AstPtr> args, SourceLoc loc);
AstPtr MakeAssign(std::string name, AstPtr value, bool global, SourceLoc loc);
AstPtr MakeReturn(AstPtr value, SourceLoc loc);
AstPtr MakeCond(std::vector<AstPtr> branches, SourceLoc loc);
AstPtr MakeListLit(std::vector<AstPtr> items, SourceLoc loc);
AstPtr MakeSeq(std::vector<AstPtr> stmts, SourceLoc loc);

/// Renders the AST as an s-expression, used by parser unit tests and
/// debugging, e.g. (dyad + (var x) (lit 1)).
std::string AstToString(const AstPtr& node);

}  // namespace hyperq

#endif  // HYPERQ_QLANG_AST_H_
