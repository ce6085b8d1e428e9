#include "qlang/fingerprint.h"

#include <string_view>

#include "common/strings.h"
#include "qval/qtype.h"

namespace hyperq {

namespace {

/// True for literal atoms the normalizer lifts into the parameter vector.
/// `structural_pos` marks positions whose direct literals must stay in the
/// structure (elements of list literals).
bool LiftableAtom(const AstNode& n, bool structural_pos) {
  return n.kind == AstKind::kLiteral && !structural_pos &&
         n.literal.is_atom() && !n.literal.IsNullAtom();
}

// ---------------------------------------------------------------------------
// Fingerprint rendering
// ---------------------------------------------------------------------------

/// Renders the normalized structure of a statement into `fp->text`,
/// lifting literal atoms into `fp->params` and recording the node that
/// filled each slot in `fp->slots`. The traversal order here defines the
/// slot numbering.
class FingerprintWriter {
 public:
  explicit FingerprintWriter(QueryFingerprint* fp) : fp_(fp) {}

  bool ok() const { return ok_; }
  const std::string& reason() const { return reason_; }

  void Visit(const AstPtr& node, bool structural_pos = false) {
    if (!ok_) return;
    if (!node) {
      fp_->text += "~";
      return;
    }
    const AstNode& n = *node;
    switch (n.kind) {
      case AstKind::kLiteral:
        if (LiftableAtom(n, structural_pos)) {
          // Value lifted; the type stays (types drive operator binding).
          Append("?", QTypeName(n.literal.type()));
          fp_->params.push_back(n.literal);
          fp_->slots.push_back(&n);
        } else {
          Append("(lit:", QTypeName(n.literal.type()),
                 n.literal.is_atom() ? ":a:" : ":l:", n.literal.ToString(),
                 ")");
        }
        return;
      case AstKind::kVarRef:
        Append("(var:", n.name, ")");
        return;
      case AstKind::kFnRef:
        Append("(fn:", n.name, ")");
        return;
      case AstKind::kAdverbed:
        Append("(adv:", n.name, " ");
        Visit(n.child);
        Append(")");
        return;
      case AstKind::kDyad:
        Append("(dyad:", n.name, " ");
        Visit(n.lhs);
        Append(" ");
        Visit(n.rhs);
        Append(")");
        return;
      case AstKind::kApply:
        Append("(apply ");
        Visit(n.child);
        for (const auto& a : n.args) {
          Append(" ");
          Visit(a);
        }
        Append(")");
        return;
      case AstKind::kCond:
        Append("(cond");
        for (const auto& a : n.args) {
          Append(" ");
          Visit(a);
        }
        Append(")");
        return;
      case AstKind::kListLit:
        Append("(list");
        for (const auto& a : n.args) {
          Append(" ");
          // Direct literal elements stay structural: list shapes feed
          // constructs that inspect the AST (fby, argument lists).
          Visit(a, /*structural_pos=*/true);
        }
        Append(")");
        return;
      case AstKind::kSeq:
        Append("(seq");
        for (const auto& a : n.args) {
          Append(" ");
          Visit(a);
        }
        Append(")");
        return;
      case AstKind::kQuery:
        VisitQuery(n);
        return;
      // Side-effecting or shape-inspected constructs: never cached.
      case AstKind::kAssign:
      case AstKind::kGlobalAssign:
        Fail("assignments have side effects");
        return;
      case AstKind::kLambda:
        Fail("function definitions are scope mutations");
        return;
      case AstKind::kReturn:
        Fail("return outside a cached context");
        return;
      case AstKind::kTableLit:
        Fail("table literals are not parameterizable");
        return;
    }
    Fail("unknown AST node kind");
  }

 private:
  void VisitQuery(const AstNode& n) {
    const char* kind = "select";
    if (n.query_kind == QueryKind::kExec) kind = "exec";
    if (n.query_kind == QueryKind::kUpdate) kind = "update";
    if (n.query_kind == QueryKind::kDelete) kind = "delete";
    Append("(", kind);
    if (n.query_limit) {
      Append(" limit ");
      Visit(n.query_limit);
    }
    if (n.query_order_dir != 0) {
      Append(" ord:", n.query_order_col, ":",
             n.query_order_dir > 0 ? "+" : "-");
    }
    VisitNamed(" cols", n.select_list);
    VisitNamed(" by", n.by_list);
    if (!n.where_list.empty()) {
      Append(" where");
      for (const auto& w : n.where_list) {
        Append(" ");
        Visit(w);
      }
    }
    Append(" from ");
    Visit(n.from);
    if (!n.delete_cols.empty()) {
      Append(" delcols:", Join(n.delete_cols, ","));
    }
    Append(")");
  }

  void VisitNamed(const char* tag, const std::vector<NamedExpr>& exprs) {
    if (exprs.empty()) return;
    Append(tag);
    for (const auto& ne : exprs) {
      Append(" (", ne.name.empty() ? "_" : ne.name, " ");
      Visit(ne.expr);
      Append(")");
    }
  }

  /// Appends string pieces straight into the fingerprint text.
  template <typename... Args>
  void Append(const Args&... args) {
    (fp_->text.append(std::string_view(args)), ...);
  }

  void Fail(const char* why) {
    if (ok_) reason_ = why;
    ok_ = false;
  }

  QueryFingerprint* fp_;
  bool ok_ = true;
  std::string reason_;
};

}  // namespace

QueryFingerprint FingerprintProgram(const std::vector<AstPtr>& stmts) {
  QueryFingerprint fp;
  if (stmts.size() != 1) {
    fp.reason = stmts.empty() ? "empty program"
                              : "multi-statement programs materialize "
                                "intermediate state";
    return fp;
  }
  FingerprintWriter writer(&fp);
  writer.Visit(stmts[0]);
  if (!writer.ok()) {
    fp.text.clear();
    fp.params.clear();
    fp.slots.clear();
    fp.reason = writer.reason();
    return fp;
  }
  fp.cacheable = true;
  fp.hash = Fnv1a(fp.text);
  return fp;
}

}  // namespace hyperq
