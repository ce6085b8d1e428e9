#ifndef HYPERQ_ALGEBRIZER_BINDER_H_
#define HYPERQ_ALGEBRIZER_BINDER_H_

#include <string>
#include <vector>

#include "algebrizer/metadata.h"
#include "algebrizer/scopes.h"
#include "common/status.h"
#include "qlang/ast.h"
#include "xtra/operator.h"

namespace hyperq {

/// How the SQL row set must be re-shaped into the Q value the application
/// expects (driven by the template kind: select yields tables, exec lists
/// or atoms, select-by keyed tables).
enum class ResultShape { kTable, kKeyedTable, kList, kAtom, kDict };

/// The output of algebrization for one Q expression: an XTRA tree plus the
/// result-shaping metadata the Cross Compiler needs (§3.4).
struct BoundQuery {
  xtra::XtraPtr root;
  ResultShape shape = ResultShape::kTable;
  std::vector<std::string> key_columns;  ///< for kKeyedTable
};

/// Side-channel the translation cache uses to learn what a binding run
/// depended on: which names were resolved (and whether any came from a
/// session/local scope rather than the catalog) and which backend tables
/// the query references.
struct BindTrace {
  bool used_scope_var = false;
  std::vector<std::string> ref_names;   ///< names resolved through scopes
  std::vector<std::string> ref_tables;  ///< backend tables referenced
};

/// The binding half of the Algebrizer (§3.2.2): resolves names through the
/// scope hierarchy and the MDI, derives and checks operator properties
/// bottom-up, and maps Q operators to XTRA expressions. Purely functional
/// over the AST: materialization decisions (assignments, function
/// unrolling) are made by the Query Translator which drives the binder.
class Binder {
 public:
  Binder(MetadataInterface* mdi, VariableScopes* scopes,
         BindTrace* trace = nullptr)
      : mdi_(mdi), scopes_(scopes), trace_(trace) {}

  /// Binds a table- or value-producing Q expression into XTRA.
  Result<BoundQuery> BindQuery(const AstPtr& node);

  /// Binds an expression expected to evaluate to a constant (scalar or
  /// list) using only scope lookups — no backend columns in scope. Used by
  /// the translator for scalar variable assignments.
  Result<QValue> BindConstant(const AstPtr& node);

 private:
  friend class BinderTestPeer;

  /// Table-producing expressions: query templates, table variables, joins,
  /// sorts, take/drop.
  Result<xtra::XtraPtr> BindTableExpr(const AstPtr& node);

  /// Scalar expressions over the columns of `input` (may be null for
  /// constant-only contexts).
  Result<xtra::ScalarPtr> BindScalar(const AstPtr& node,
                                     const xtra::XtraOp* input);

  Result<xtra::XtraPtr> BindQueryTemplate(const AstNode& node);
  Result<xtra::XtraPtr> BindAsOfJoin(const AstNode& apply);
  Result<xtra::XtraPtr> BindEquiJoinCall(const AstNode& apply);
  Result<xtra::XtraPtr> BindKeyedJoin(const std::string& op,
                                      const AstPtr& left,
                                      const AstPtr& right);
  Result<xtra::XtraPtr> BindUnionJoin(const AstPtr& left,
                                      const AstPtr& right);
  Result<xtra::XtraPtr> BindSortTable(const std::string& op,
                                      const AstPtr& cols,
                                      const AstPtr& table);
  Result<xtra::XtraPtr> BindTake(const AstPtr& count, const AstPtr& table);

  /// Resolves a table expression that must be keyed (for lj/ij): returns
  /// the tree and its key column names.
  struct KeyedTable {
    xtra::XtraPtr op;
    std::vector<std::string> keys;
  };
  Result<KeyedTable> BindKeyedTable(const AstPtr& node);

  Result<xtra::ScalarPtr> BindDyadScalar(const AstNode& node,
                                         const xtra::XtraOp* input);
  Result<xtra::ScalarPtr> BindApplyScalar(const AstNode& node,
                                          const xtra::XtraOp* input);
  Result<xtra::ScalarPtr> BindNamedCall(const std::string& name,
                                        const std::vector<AstPtr>& args,
                                        const xtra::XtraOp* input,
                                        SourceLoc loc);

  /// Window helper: f OVER (ORDER BY child ordcol) — requires the input to
  /// carry an implicit order column.
  Result<xtra::ScalarPtr> MakeOrderedWindow(
      const std::string& func, std::vector<xtra::ScalarPtr> args,
      const xtra::XtraOp* input, QType type, bool has_frame = false,
      int64_t frame_preceding = 0);

  xtra::ColId NextId() { return next_col_id_++; }

  /// Scope lookup recording the dependency into the trace (if any).
  Result<VarBinding> LookupVar(const std::string& name);
  /// Reads a literal symbol list.
  Result<std::vector<std::string>> SymbolListOf(const AstPtr& node,
                                                const char* what);

  MetadataInterface* mdi_;
  VariableScopes* scopes_;
  BindTrace* trace_;
  int next_col_id_ = 1;
};

/// True when the expression tree contains an aggregate node.
bool ContainsAggregate(const xtra::ScalarPtr& e);

/// Derives the q result type of a scalar function application.
QType DeriveFuncType(const std::string& func,
                     const std::vector<xtra::ScalarPtr>& args);

}  // namespace hyperq

#endif  // HYPERQ_ALGEBRIZER_BINDER_H_
