#ifndef HYPERQ_SQLDB_KERNEL_REGISTRY_H_
#define HYPERQ_SQLDB_KERNEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/status.h"
#include "sqldb/ast.h"
#include "sqldb/catalog.h"
#include "sqldb/kernel.h"
#include "sqldb/relation.h"

namespace hyperq {
namespace sqldb {

class Session;

/// The backend's plan cache (the front end's is the translation cache,
/// src/core/translation_cache.h): maps a SELECT fingerprint to a
/// compiled KernelPlan, version-stamped against the owning catalog so any
/// DDL/DML invalidates stale kernels on the next lookup. Unsupported
/// shapes are negative-cached so repeated cold queries don't re-walk the
/// compiler. One registry per Database; thread-safe.
class KernelRegistry {
 public:
  explicit KernelRegistry(Catalog* catalog);

  KernelRegistry(const KernelRegistry&) = delete;
  KernelRegistry& operator=(const KernelRegistry&) = delete;

  /// Tries to run `stmt` through a fused kernel. The table name resolves
  /// as in the interpreted executor: a session temp table shadowing a
  /// catalog table runs the catalog-compiled plan over the temp table's
  /// columns. Returns:
  ///   - nullopt: not kernel-runnable here (unsupported shape, a session
  ///     temp name with no catalog table behind it, a shadow or catalog
  ///     table whose schema or storage classes differ from the compiled
  ///     plan's, armed `backend.kernel` fault, registry disabled) —
  ///     caller falls back to the interpreted executor;
  ///   - a Result: the kernel ran; an error Result is authoritative
  ///     (deadline expiry), not a fallback signal.
  std::optional<Result<Relation>> TryExecuteSelect(const SelectStmt& stmt,
                                                   const Session* session);

  /// Drops every cached plan (wired into `.hyperq.cacheClear`).
  void Clear();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  size_t size() const;

 private:
  struct Entry {
    uint64_t catalog_version = 0;
    /// nullptr = negative entry (shape compiles to "unsupported").
    std::shared_ptr<const KernelPlan> plan;
    std::list<std::string>::iterator lru_it;
  };

  /// Looks up / compiles the plan for `fp` under the current catalog
  /// version. Returns nullptr when the statement is negative-cached.
  std::shared_ptr<const KernelPlan> PlanFor(const KernelFingerprint& fp,
                                            const SelectStmt& stmt,
                                            uint64_t version);

  static constexpr size_t kCapacity = 256;

  /// Bumps the `kernel.reject.<reason>` counter for a rejected shape.
  /// Unknown reasons fold into `kernel.reject.other`.
  void CountReject(const char* reason);

  Catalog* catalog_;
  std::atomic<bool> enabled_{true};

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< front = most recent

  Counter* hits_;
  Counter* misses_;
  Counter* fallbacks_;
  LatencyHistogram* compile_us_;
  LatencyHistogram* exec_us_;
  /// Labeled rejection counters (kernel.reject.subquery, .order_by, ...),
  /// pre-created so `.hyperq.stats[]` always lists the full set at zero.
  std::unordered_map<std::string, Counter*> reject_counters_;
  Counter* reject_other_;
};

}  // namespace sqldb
}  // namespace hyperq

#endif  // HYPERQ_SQLDB_KERNEL_REGISTRY_H_
