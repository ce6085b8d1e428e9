#include "core/metadata_cache.h"

namespace hyperq {

bool MetadataCache::Fresh(const Entry& e) const {
  return std::chrono::steady_clock::now() - e.loaded_at <= options_.ttl;
}

void MetadataCache::MaybeFlushOnVersionChange() {
  if (!version_provider_) return;
  uint64_t v = version_provider_();
  if (v != last_version_) {
    last_version_ = v;
    if (!cache_.empty()) {
      cache_.clear();
      ++stats_.invalidations;
      invalidations_metric_->Increment();
    }
  }
}

Result<TableMetadataPtr> MetadataCache::LookupTable(const std::string& name) {
  ++stats_.lookups;
  if (!options_.enabled) {
    ++stats_.misses;
    misses_metric_->Increment();
    return inner_->LookupTable(name);
  }
  MaybeFlushOnVersionChange();
  auto it = cache_.find(name);
  if (it != cache_.end() && Fresh(it->second)) {
    ++stats_.hits;
    hits_metric_->Increment();
    return it->second.meta;
  }
  ++stats_.misses;
  misses_metric_->Increment();
  HQ_ASSIGN_OR_RETURN(TableMetadataPtr meta, inner_->LookupTable(name));
  cache_[name] = Entry{meta, std::chrono::steady_clock::now()};
  return meta;
}

bool MetadataCache::HasTable(const std::string& name) {
  if (options_.enabled) {
    MaybeFlushOnVersionChange();
    auto it = cache_.find(name);
    if (it != cache_.end() && Fresh(it->second)) return true;
  }
  return inner_->HasTable(name);
}

void MetadataCache::Invalidate() {
  cache_.clear();
  ++stats_.invalidations;
  invalidations_metric_->Increment();
  if (listener_) listener_(nullptr);
}

void MetadataCache::InvalidateTable(const std::string& name) {
  if (cache_.erase(name) > 0) {
    ++stats_.invalidations;
    invalidations_metric_->Increment();
  }
  // The listener fires whether or not the MDI held an entry: the caller is
  // declaring the table's metadata stale, and dependent translations must
  // go either way.
  if (listener_) listener_(&name);
}

}  // namespace hyperq
