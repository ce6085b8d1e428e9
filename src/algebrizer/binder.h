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
  /// Statements whose narrowed bind failed but whose full-width re-bind
  /// succeeded (also counted as `translate.narrow_misses`). Always 0 unless
  /// narrowing dropped a column a statement reads.
  int narrow_misses = 0;
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

  /// Column names a statement can see. A superset is always safe: a scan
  /// binds the visible names it has plus its order column. A null
  /// `Names*` means every column (the scan stays as wide as the table).
  using Names = std::vector<std::string>;

  /// Table-producing expressions: query templates, table variables, joins,
  /// sorts, take/drop. Scans bind only the `visible` columns.
  Result<xtra::XtraPtr> BindTableExpr(const AstPtr& node,
                                      const Names* visible = nullptr);
  /// A Get over `meta` holding the visible columns in catalog order.
  xtra::XtraPtr BindScan(const TableMetadata& meta, const Names* visible);
  /// BindQuery with scans narrowed (`narrow_`) or at full width.
  Result<BoundQuery> BindQueryOnce(const AstPtr& node);

  /// Scalar expressions over the columns of `input` (may be null for
  /// constant-only contexts).
  Result<xtra::ScalarPtr> BindScalar(const AstPtr& node,
                                     const xtra::XtraOp* input);

  Result<xtra::XtraPtr> BindQueryTemplate(const AstNode& node,
                                          const Names* visible);
  Result<xtra::XtraPtr> BindAsOfJoin(const AstNode& apply,
                                     const Names* visible);
  Result<xtra::XtraPtr> BindEquiJoinCall(const AstNode& apply,
                                         const Names* visible);
  Result<xtra::XtraPtr> BindKeyedJoin(const std::string& op,
                                      const AstPtr& left,
                                      const AstPtr& right,
                                      const Names* visible);
  Result<xtra::XtraPtr> BindUnionJoin(const AstPtr& left,
                                      const AstPtr& right,
                                      const Names* visible);
  Result<xtra::XtraPtr> BindSortTable(const std::string& op,
                                      const AstPtr& cols,
                                      const AstPtr& table,
                                      const Names* visible);
  Result<xtra::XtraPtr> BindTake(const AstPtr& count, const AstPtr& table,
                                 const Names* visible);

  /// A table expression that must be keyed (the right input of lj/ij, or
  /// `k xkey t`), resolved to its key names without binding it. A keyed
  /// table variable also carries the metadata its scan binds from.
  struct KeyedInput {
    std::vector<std::string> keys;
    TableMetadataPtr meta;  ///< null for `k xkey t`
  };
  Result<KeyedInput> ResolveKeyedInput(const AstPtr& node);
  /// Binds a resolved keyed input; `visible` already holds its keys.
  Result<xtra::XtraPtr> BindKeyedInput(const AstPtr& node,
                                       const KeyedInput& in,
                                       const Names* visible);

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
  /// Column-list statements narrow their scans; off for the full-width
  /// re-bind that words a failure.
  bool narrow_ = true;
};

/// True when the expression tree contains an aggregate node.
bool ContainsAggregate(const xtra::ScalarPtr& e);

/// Derives the q result type of a scalar function application.
QType DeriveFuncType(const std::string& func,
                     const std::vector<xtra::ScalarPtr>& args);

}  // namespace hyperq

#endif  // HYPERQ_ALGEBRIZER_BINDER_H_
