#ifndef HYPERQ_XTRA_SCALAR_H_
#define HYPERQ_XTRA_SCALAR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qval/qvalue.h"

namespace hyperq {
namespace xtra {

/// Unique column identity within one XTRA tree. Names are for display and
/// SQL aliases; ids drive property derivation and column pruning (§3.3).
using ColId = int;
inline constexpr ColId kNoCol = -1;

enum class ScalarKind {
  kConst,   ///< literal atom (QValue payload)
  kColRef,  ///< reference to a child output column by ColId
  kFunc,    ///< scalar function/operator application
  kAgg,     ///< aggregate function (valid under GroupAgg)
  kWindow,  ///< window function (ordered analytics, e.g. LAG for prev)
  kCase,    ///< conditional: args = [c1, v1, c2, v2, ..., else]
  kCast,    ///< type conversion
};

struct ScalarExpr;
using ScalarPtr = std::shared_ptr<const ScalarExpr>;

/// Scalar function names use a Q-flavoured canonical vocabulary; the
/// serializer maps them to SQL spellings:
///   "add","sub","mul","fdiv" (q % is float division), "idiv","mod","xbar"
///   "eq","ne","lt","gt","le","ge"       plain comparisons
///   "eq_ind","ne_ind"                   null-safe (2VL) comparisons (§3.3)
///   "and","or","not","isnull","notnull","least","greatest"
///   "in" (args[0] tested against args[1..])
///   "between" (args: x, lo, hi), "like"
///   "neg","abs","sqrt","exp","log","floor","ceiling","signum"
///   "coalesce","concat"
/// Aggregates: "sum","avg","min","max","count","count_star","med","dev",
///   "var","first","last"
/// Windows: "lag","lead","row_number","sum","avg","min","max","count",
///   "first_value","last_value"
struct ScalarExpr {
  ScalarKind kind = ScalarKind::kConst;
  QType type = QType::kUnary;  ///< derived output type

  // kConst
  QValue value;

  // kColRef
  ColId col = kNoCol;
  std::string col_name;

  // kFunc / kAgg / kWindow
  std::string func;
  std::vector<ScalarPtr> args;
  bool distinct = false;  ///< count distinct

  // kWindow
  std::vector<ScalarPtr> partition_by;
  std::vector<std::pair<ScalarPtr, bool>> order_by;  ///< (expr, ascending)
  bool has_frame = false;
  int64_t frame_preceding = 0;  ///< ROWS BETWEEN n PRECEDING AND CURRENT ROW

  // kCase
  bool has_else = false;

  // kCast
  QType cast_to = QType::kUnary;

  /// True if evaluating this expression can produce NULL (drives the
  /// correctness rule that swaps eq -> eq_ind).
  bool nullable = true;
};

ScalarPtr MakeConst(QValue v);
ScalarPtr MakeColRef(ColId id, std::string name, QType type, bool nullable);
ScalarPtr MakeFunc(std::string func, std::vector<ScalarPtr> args, QType type);
ScalarPtr MakeAgg(std::string func, std::vector<ScalarPtr> args, QType type);
ScalarPtr MakeCast(ScalarPtr arg, QType to);

/// Renders for debugging/tests: (eq (col 3 Price) (const 7)).
std::string ScalarToString(const ScalarPtr& e);

/// Collects every ColId referenced by the expression (recursively).
void CollectColumnRefs(const ScalarPtr& e, std::vector<ColId>* out);

/// Structurally rewrites an expression bottom-up; `fn` returns the node
/// replacement (or the node itself). Used by Xformer rules.
using ScalarRewriteFn = ScalarPtr (*)(const ScalarPtr&, void*);
ScalarPtr RewriteScalar(const ScalarPtr& e, ScalarRewriteFn fn, void* arg);

}  // namespace xtra
}  // namespace hyperq

#endif  // HYPERQ_XTRA_SCALAR_H_
