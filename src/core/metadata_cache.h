#ifndef HYPERQ_CORE_METADATA_CACHE_H_
#define HYPERQ_CORE_METADATA_CACHE_H_

#include <chrono>
#include <functional>
#include <string>
#include <unordered_map>

#include "algebrizer/metadata.h"
#include "common/metrics.h"

namespace hyperq {

/// Caching decorator over an MDI. §6: "Hyper-Q provides a configurable
/// metadata caching mechanism with configurable invalidation policies and
/// cache expiration time. Our experiments are conducted with metadata
/// caching enabled." Entries expire after `ttl`; when a version provider is
/// configured, any backend catalog change invalidates the whole cache.
class MetadataCache : public MetadataInterface {
 public:
  struct Options {
    std::chrono::milliseconds ttl{60000};
    bool enabled = true;
  };

  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
  };

  MetadataCache(MetadataInterface* inner, Options options)
      : inner_(inner),
        options_(options),
        hits_metric_(
            MetricsRegistry::Global().GetCounter("mdi.cache_hits")),
        misses_metric_(
            MetricsRegistry::Global().GetCounter("mdi.cache_misses")),
        invalidations_metric_(MetricsRegistry::Global().GetCounter(
            "mdi.cache_invalidations")) {}

  /// Installs a catalog-version source; a version change flushes the cache.
  void SetVersionProvider(std::function<uint64_t()> provider) {
    version_provider_ = std::move(provider);
  }

  /// Observer poked by the explicit invalidation entry points: `table` is
  /// the invalidated table, or nullptr for a full flush. The translation
  /// cache subscribes so dropping metadata also drops the cached
  /// translations built from it.
  using InvalidationListener = std::function<void(const std::string* table)>;
  void SetInvalidationListener(InvalidationListener listener) {
    listener_ = std::move(listener);
  }

  Result<TableMetadataPtr> LookupTable(const std::string& name) override;
  bool HasTable(const std::string& name) override;

  void Invalidate();
  void InvalidateTable(const std::string& name);
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    TableMetadataPtr meta;
    std::chrono::steady_clock::time_point loaded_at;
  };

  void MaybeFlushOnVersionChange();
  bool Fresh(const Entry& e) const;

  MetadataInterface* inner_;
  Options options_;
  std::function<uint64_t()> version_provider_;
  InvalidationListener listener_;
  uint64_t last_version_ = 0;
  std::unordered_map<std::string, Entry> cache_;
  Stats stats_;
  // Process-wide counters mirroring stats_ (all sessions aggregated), for
  // `.hyperq.stats[]`.
  Counter* hits_metric_;
  Counter* misses_metric_;
  Counter* invalidations_metric_;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_METADATA_CACHE_H_
