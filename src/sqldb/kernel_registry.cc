#include "sqldb/kernel_registry.h"

#include <chrono>
#include <utility>

#include "common/fault.h"
#include "sqldb/session.h"

namespace hyperq {
namespace sqldb {
namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

KernelRegistry::KernelRegistry(Catalog* catalog) : catalog_(catalog) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  hits_ = reg.GetCounter("kernel.hits");
  misses_ = reg.GetCounter("kernel.misses");
  fallbacks_ = reg.GetCounter("kernel.fallbacks");
  compile_us_ = reg.GetHistogram("kernel.compile_us");
  exec_us_ = reg.GetHistogram("kernel.exec_us");
  // Every label KernelFingerprintFor / Compile can emit, pre-created so
  // `.hyperq.stats[]` reports the full rejection taxonomy even at zero
  // (docs/OBSERVABILITY.md).
  static const char* const kRejectReasons[] = {
      "subquery", "join",     "from",    "distinct", "having",
      "union",    "group_by", "star_agg", "expr",    "predicate",
      "order_by", "limit",    "compile"};
  for (const char* reason : kRejectReasons) {
    reject_counters_.emplace(
        reason, reg.GetCounter(std::string("kernel.reject.") + reason));
  }
  reject_other_ = reg.GetCounter("kernel.reject.other");
}

void KernelRegistry::CountReject(const char* reason) {
  if (reason == nullptr) {
    reject_other_->Increment();
    return;
  }
  auto it = reject_counters_.find(reason);
  (it != reject_counters_.end() ? it->second : reject_other_)->Increment();
}

std::shared_ptr<const KernelPlan> KernelRegistry::PlanFor(
    const KernelFingerprint& fp, const SelectStmt& stmt, uint64_t version) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fp.text);
    if (it != entries_.end() && it->second.catalog_version == version) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      if (it->second.plan != nullptr) hits_->Increment();
      return it->second.plan;
    }
  }

  // Miss or stale: compile outside the lock (compiles are rare and other
  // queries shouldn't serialize behind them).
  misses_->Increment();
  int64_t t0 = NowUs();
  Result<std::shared_ptr<const KernelPlan>> compiled =
      KernelPlan::Compile(stmt, *catalog_);
  compile_us_->Record(NowUs() - t0);
  std::shared_ptr<const KernelPlan> plan =
      compiled.ok() ? *std::move(compiled) : nullptr;
  if (plan == nullptr) CountReject("compile");

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fp.text);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.catalog_version = version;
    it->second.plan = plan;
    return plan;
  }
  while (entries_.size() >= kCapacity) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(fp.text);
  entries_.emplace(fp.text, Entry{version, plan, lru_.begin()});
  return plan;
}

std::optional<Result<Relation>> KernelRegistry::TryExecuteSelect(
    const SelectStmt& stmt, const Session* session) {
  if (!enabled()) return std::nullopt;

  KernelFingerprint fp = KernelFingerprintFor(stmt);
  if (!fp.supported) {
    fallbacks_->Increment();
    CountReject(fp.reject_reason);
    return std::nullopt;
  }
  // Resolve the name in the executor's lookup order (Executor::LookupNamed):
  // session temp table, catalog table, session temp view. Plans compile
  // against the catalog table, so a temp name with no catalog table behind
  // it stays interpreted without a compile attempt. A temp table shadowing
  // a catalog table runs the catalog-compiled plan once GuardOk accepts it.
  std::shared_ptr<StoredTable> table;
  if (session != nullptr) {
    auto it = session->temp_tables().find(fp.table);
    if (it != session->temp_tables().end()) table = it->second;
    if ((table != nullptr || session->temp_views().count(fp.table) != 0) &&
        !catalog_->HasTable(fp.table)) {
      fallbacks_->Increment();
      return std::nullopt;
    }
  }
  // Fault site: an armed error downgrades the kernel path to the
  // interpreted executor (the query still succeeds); delays are slept
  // inside the injector before this returns.
  if (CheckFault("backend.kernel").kind != FaultHit::Kind::kNone) {
    fallbacks_->Increment();
    return std::nullopt;
  }

  // Stamp with the *per-table* version, not the global one: an ingest
  // flush (or any DML) into table B must not force recompiles of table
  // A's hot kernels.
  const uint64_t version = catalog_->TableVersion(fp.table);
  std::shared_ptr<const KernelPlan> plan = PlanFor(fp, stmt, version);
  if (plan == nullptr) {
    fallbacks_->Increment();
    return std::nullopt;
  }

  if (table == nullptr) {
    Result<std::shared_ptr<StoredTable>> stored = catalog_->GetTable(fp.table);
    if (stored.ok()) table = *std::move(stored);
  }
  if (table == nullptr || !plan->GuardOk(*table)) {
    // Schema drifted under us, the table vanished, or the shadow's schema
    // differs from the catalog table's: let the interpreted executor
    // produce the authoritative result/error.
    fallbacks_->Increment();
    return std::nullopt;
  }

  int64_t t0 = NowUs();
  Result<Relation> result = plan->Execute(*table, fp.params);
  exec_us_->Record(NowUs() - t0);
  return std::optional<Result<Relation>>(std::move(result));
}

void KernelRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t KernelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace sqldb
}  // namespace hyperq
