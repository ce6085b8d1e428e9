#ifndef HYPERQ_XFORMER_XFORMER_H_
#define HYPERQ_XFORMER_XFORMER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "xtra/operator.h"

namespace hyperq {

/// The Xformer (§3.3) rewrites XTRA expressions before serialization. The
/// three rule classes from the paper:
///  - Correctness: Q's 2-valued null logic is imposed on SQL by replacing
///    strict equality with IS NOT DISTINCT FROM (and ordered comparisons
///    with null-first forms), except where a filter compares with a
///    literal: there plain SQL already keeps exactly q's rows.
///  - Transparency: Q ordering semantics are maintained by propagating an
///    order-requirement property; operators whose parents are order-
///    insensitive (e.g. scalar aggregation) drop their ordering.
///  - Performance: unused columns are pruned from every operator so the
///    serialized SQL does not drag 500-column tables through subqueries.
class Xformer {
 public:
  struct Options {
    bool null_semantics = true;
    bool order_elision = true;
    bool column_pruning = true;
  };

  Xformer() = default;
  explicit Xformer(Options options) : options_(options) {}

  /// Transforms a tree in place (the tree is assumed tenant-owned; callers
  /// keeping the pre-transform tree should CloneTree first).
  /// `result_order_required` states whether the application-visible result
  /// depends on row order (false for scalar/atom results).
  Status Transform(const xtra::XtraPtr& root, bool result_order_required);

  /// Names of rules that fired in the last Transform call (for tests and
  /// the benchmark harness).
  const std::vector<std::string>& applied_rules() const {
    return applied_rules_;
  }

 private:
  Status ApplyNullSemantics(const xtra::XtraPtr& op);
  /// `elide` applies the order-insensitivity analysis; when false, every
  /// operator keeps its ordering requirement (the rule's ablation).
  void PropagateOrderRequirement(const xtra::XtraPtr& op, bool required,
                                 bool elide);
  Status PruneColumns(const xtra::XtraPtr& op,
                      const std::vector<xtra::ColId>& required);

  Options options_;
  std::vector<std::string> applied_rules_;
};

}  // namespace hyperq

#endif  // HYPERQ_XFORMER_XFORMER_H_
