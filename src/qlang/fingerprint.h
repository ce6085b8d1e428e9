#ifndef HYPERQ_QLANG_FINGERPRINT_H_
#define HYPERQ_QLANG_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qlang/ast.h"
#include "qval/qvalue.h"

namespace hyperq {

/// The normalized identity of a Q request for the translation cache: the
/// statement's structure with literal atoms lifted out into an ordered
/// parameter vector. Two requests that differ only in (non-null) literal
/// atom values produce the same fingerprint text and hash, so a cached
/// parameterized translation can be rehydrated by splicing the current
/// parameter values back into the SQL template.
///
/// Lifting rules (documented in docs/PERFORMANCE.md):
///   - only literal *atoms* are lifted; vector literals (`a`b`c, 1 2 3)
///     stay in the structure, rendered by value;
///   - null atoms stay structural (nullability changes the generated plan:
///     the binder derives `nullable` from the constant);
///   - atoms that are direct elements of a list literal (x;y;z) or a table
///     literal stay structural (those positions feed constructs that
///     inspect AST shape, e.g. fby);
///   - the lifted atom's *type* is part of the structure (types drive
///     operator derivation), its *value* is not.
///
/// The same walk records which literal node filled each slot (`slots`).
/// The binder tags the constant it makes for such a node with the slot,
/// and the serializer renders tagged constants as `$n` in the template it
/// writes beside the concrete SQL. A lifted value may still be consumed
/// structurally downstream (take counts, select[n] limits, window sizes,
/// cast targets, sort column names, `in` lists): its slot then never
/// surfaces as `$n`, and the cache pins it, so a cached entry only matches
/// when the pinned slots carry the exact values it was built with.
struct QueryFingerprint {
  /// False when the statement can never be cached (assignments, function
  /// definitions, multi-statement programs, ...). `reason` says why.
  bool cacheable = false;
  std::string reason;

  /// Canonical rendering of the normalized statement; lifted literals
  /// appear as typed placeholders. Stored in cache entries to make hash
  /// collisions harmless.
  std::string text;
  /// FNV-1a hash of `text` (shard + bucket selection).
  uint64_t hash = 0;
  /// The lifted literal atoms, in canonical traversal order. Slot i
  /// corresponds to the `$i+1` placeholder in a cached SQL template.
  std::vector<QValue> params;
  /// slots[i] is the literal node whose value is params[i]. The nodes
  /// belong to the fingerprinted program and live as long as it does.
  std::vector<const AstNode*> slots;
};

/// Fingerprints a parsed Q program. Programs with more than one statement
/// or with side-effecting statements come back with cacheable=false (their
/// text/params/slots are left empty). The caller must additionally reject
/// user-function invocations, which need scope knowledge qlang does not
/// have.
QueryFingerprint FingerprintProgram(const std::vector<AstPtr>& stmts);

}  // namespace hyperq

#endif  // HYPERQ_QLANG_FINGERPRINT_H_
