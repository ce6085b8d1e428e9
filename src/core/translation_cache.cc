#include "core/translation_cache.h"

#include <algorithm>

namespace hyperq {

TranslationCache::TranslationCache() : TranslationCache(Options()) {}

TranslationCache::TranslationCache(Options options)
    : options_(options),
      enabled_(options.enabled),
      hits_(MetricsRegistry::Global().GetCounter("translation_cache.hits")),
      misses_(
          MetricsRegistry::Global().GetCounter("translation_cache.misses")),
      inserts_(
          MetricsRegistry::Global().GetCounter("translation_cache.inserts")),
      evictions_(MetricsRegistry::Global().GetCounter(
          "translation_cache.evictions")),
      invalidations_(MetricsRegistry::Global().GetCounter(
          "translation_cache.invalidations")) {
  if (options_.shard_count == 0) options_.shard_count = 1;
  shards_.reserve(options_.shard_count);
  for (size_t i = 0; i < options_.shard_count; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(options_.exact_capacity_per_shard));
  }
}

TranslationCache::Shard::Shard(size_t capacity)
    : probation_cap(std::max<size_t>(1, capacity / 8)),
      protected_cap(capacity > probation_cap ? capacity - probation_cap : 0) {}

TranslationCache::Entry& TranslationCache::Shard::FindOrInsert(
    const std::string& key, bool* inserted) {
  auto it = map.find(key);
  *inserted = it == map.end();
  if (it != map.end()) {
    Touch(it->second);
    return it->second;
  }
  probation.push_front(key);
  Entry& e = map.emplace(key, Entry{}).first->second;
  e.lru_it = probation.begin();
  return e;
}

void TranslationCache::Shard::Touch(Entry& e) {
  if (e.is_protected) {
    protect.splice(protect.begin(), protect, e.lru_it);
    return;
  }
  protect.splice(protect.begin(), probation, e.lru_it);
  e.is_protected = true;
  if (protect.size() > protected_cap) {
    Entry& demoted = map.find(protect.back())->second;
    probation.splice(probation.begin(), protect, demoted.lru_it);
    demoted.is_protected = false;
  }
}

std::unordered_map<std::string, TranslationCache::Entry>::iterator
TranslationCache::Shard::Erase(
    std::unordered_map<std::string, Entry>::iterator it) {
  (it->second.is_protected ? protect : probation).erase(it->second.lru_it);
  return map.erase(it);
}

size_t TranslationCache::Shard::Trim() {
  size_t evicted = 0;
  while (probation.size() > probation_cap) {
    map.erase(probation.back());
    probation.pop_back();
    ++evicted;
  }
  return evicted;
}

void TranslationCache::Shard::Clear() {
  map.clear();
  probation.clear();
  protect.clear();
}

bool TranslationCache::LookupExact(const std::string& q_text,
                                   const ShadowFn& shadowed,
                                   Translation* out) {
  if (!enabled()) return false;
  Shard& shard = ShardFor(q_text);
  const uint64_t version = CurrentVersion();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(q_text);
  if (it == shard.map.end()) {
    misses_->Increment();
    return false;
  }
  const Entry& e = it->second;
  if (e.version != version) {
    shard.Erase(it);
    invalidations_->Increment();
    misses_->Increment();
    return false;
  }
  if (shadowed && std::any_of(e.ref_names.begin(), e.ref_names.end(),
                              shadowed)) {
    misses_->Increment();
    return false;
  }
  shard.Touch(it->second);
  out->setup_sql.clear();
  out->result_sql = e.sql;
  out->shape = e.shape;
  out->key_columns = e.key_columns;
  out->shard = e.shard;
  out->timings = StageTimings{};
  hits_->Increment();
  return true;
}

void TranslationCache::InsertExact(const std::string& q_text,
                                   const Translation& t,
                                   std::vector<std::string> ref_tables,
                                   std::vector<std::string> ref_names) {
  if (!enabled()) return;
  Shard& shard = ShardFor(q_text);
  const uint64_t version = CurrentVersion();
  std::lock_guard<std::mutex> lock(shard.mu);
  bool inserted = false;
  Entry& e = shard.FindOrInsert(q_text, &inserted);
  if (inserted) inserts_->Increment();
  e.sql = t.result_sql;
  e.shape = t.shape;
  e.key_columns = t.key_columns;
  e.shard = t.shard;
  e.ref_tables = std::move(ref_tables);
  e.ref_names = std::move(ref_names);
  e.version = version;
  evictions_->Increment(shard.Trim());
}

void TranslationCache::InvalidateTable(const std::string& table) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      const auto& refs = it->second.ref_tables;
      if (std::find(refs.begin(), refs.end(), table) != refs.end()) {
        it = shard->Erase(it);
        invalidations_->Increment();
      } else {
        ++it;
      }
    }
  }
}

void TranslationCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    invalidations_->Increment(shard->map.size());
    shard->Clear();
  }
}

size_t TranslationCache::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->map.size();
  }
  return n;
}

}  // namespace hyperq
