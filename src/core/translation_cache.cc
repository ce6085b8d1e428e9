#include "core/translation_cache.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"
#include "qlang/fingerprint.h"
#include "serializer/serializer.h"

namespace hyperq {

TranslationCache::TranslationCache() : TranslationCache(Options()) {}

TranslationCache::TranslationCache(Options options)
    : options_(options),
      enabled_(options.enabled),
      hits_(MetricsRegistry::Global().GetCounter("translation_cache.hits")),
      hits_exact_(MetricsRegistry::Global().GetCounter(
          "translation_cache.exact_hits")),
      misses_(
          MetricsRegistry::Global().GetCounter("translation_cache.misses")),
      inserts_(
          MetricsRegistry::Global().GetCounter("translation_cache.inserts")),
      evictions_(MetricsRegistry::Global().GetCounter(
          "translation_cache.evictions")),
      invalidations_(MetricsRegistry::Global().GetCounter(
          "translation_cache.invalidations")),
      uncacheable_(MetricsRegistry::Global().GetCounter(
          "translation_cache.uncacheable")) {
  if (options_.shard_count == 0) options_.shard_count = 1;
  if (options_.max_variants == 0) options_.max_variants = 1;
  shards_.reserve(options_.shard_count);
  for (size_t i = 0; i < options_.shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->fp.SetCapacity(options_.capacity_per_shard);
    shard->exact.SetCapacity(options_.exact_capacity_per_shard);
    shards_.push_back(std::move(shard));
  }
}

template <typename Entry>
void TranslationCache::Tier<Entry>::SetCapacity(size_t capacity) {
  probation_cap = std::max<size_t>(1, capacity / 8);
  protected_cap = capacity > probation_cap ? capacity - probation_cap : 0;
}

template <typename Entry>
Entry& TranslationCache::Tier<Entry>::FindOrInsert(const std::string& key,
                                                   bool* inserted) {
  auto it = map.find(key);
  if (inserted != nullptr) *inserted = it == map.end();
  if (it != map.end()) {
    Touch(it->second);
    return it->second;
  }
  probation.push_front(key);
  Entry& e = map.emplace(key, Entry{}).first->second;
  e.lru_it = probation.begin();
  return e;
}

template <typename Entry>
void TranslationCache::Tier<Entry>::Touch(Entry& e) {
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

template <typename Entry>
typename std::unordered_map<std::string, Entry>::iterator
TranslationCache::Tier<Entry>::Erase(
    typename std::unordered_map<std::string, Entry>::iterator it) {
  (it->second.is_protected ? protect : probation).erase(it->second.lru_it);
  return map.erase(it);
}

template <typename Entry>
size_t TranslationCache::Tier<Entry>::Trim() {
  size_t evicted = 0;
  while (probation.size() > probation_cap) {
    map.erase(probation.back());
    probation.pop_back();
    ++evicted;
  }
  return evicted;
}

template <typename Entry>
void TranslationCache::Tier<Entry>::Clear() {
  map.clear();
  probation.clear();
  protect.clear();
}

bool TranslationCache::AnyShadowed(const std::vector<std::string>& names,
                                   const ShadowFn& shadowed) {
  if (!shadowed) return false;
  for (const auto& n : names) {
    if (shadowed(n)) return true;
  }
  return false;
}

bool TranslationCache::LookupExact(const std::string& q_text,
                                   const ShadowFn& shadowed,
                                   Translation* out) {
  if (!enabled()) return false;
  Shard& shard = ShardFor(FingerprintHash(q_text));
  const uint64_t version = CurrentVersion();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.exact.map.find(q_text);
  if (it == shard.exact.map.end()) return false;
  const Cached& c = it->second.value;
  if (c.version != version) {
    shard.exact.Erase(it);
    invalidations_->Increment();
    return false;
  }
  if (AnyShadowed(c.ref_names, shadowed)) return false;
  shard.exact.Touch(it->second);
  out->setup_sql.clear();
  out->result_sql = c.sql;
  out->shape = c.shape;
  out->key_columns = c.key_columns;
  out->shard = c.shard;
  out->hybrid = c.hybrid;
  out->timings = StageTimings{};
  hits_->Increment();
  hits_exact_->Increment();
  return true;
}

void TranslationCache::InsertExact(const std::string& q_text,
                                   const Translation& t,
                                   std::vector<std::string> ref_tables,
                                   std::vector<std::string> ref_names) {
  if (!enabled()) return;
  Shard& shard = ShardFor(FingerprintHash(q_text));
  const uint64_t version = CurrentVersion();
  std::lock_guard<std::mutex> lock(shard.mu);
  bool inserted = false;
  Cached& c = shard.exact.FindOrInsert(q_text, &inserted).value;
  if (inserted) inserts_->Increment();
  c.sql = t.result_sql;
  c.shape = t.shape;
  c.key_columns = t.key_columns;
  c.shard = t.shard;
  c.hybrid = t.hybrid;
  c.pins.clear();
  c.ref_tables = std::move(ref_tables);
  c.ref_names = std::move(ref_names);
  c.version = version;
  evictions_->Increment(shard.exact.Trim());
}

TranslationCache::FpResult TranslationCache::Lookup(
    uint64_t hash, const std::string& fp_text,
    const std::vector<QValue>& params, const ShadowFn& shadowed,
    Translation* out) {
  if (!enabled()) return FpResult::kUncacheable;
  Shard& shard = ShardFor(hash);
  const uint64_t version = CurrentVersion();

  // Render outside the lock: literal formatting has no shared state.
  Result<std::vector<std::string>> rendered = RenderParams(params);

  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.fp.map.find(fp_text);
  if (it == shard.fp.map.end()) {
    misses_->Increment();
    return FpResult::kMiss;
  }
  shard.fp.Touch(it->second);
  if (it->second.uncacheable) return FpResult::kUncacheable;
  if (!rendered.ok()) {
    // A lifted literal we cannot render can never match or instantiate.
    misses_->Increment();
    return FpResult::kMiss;
  }
  auto& variants = it->second.variants;
  for (auto v = variants.begin(); v != variants.end();) {
    if (v->version != version) {
      v = variants.erase(v);
      invalidations_->Increment();
      continue;
    }
    bool pins_match = true;
    for (const auto& [slot, value] : v->pins) {
      if (slot < 0 || static_cast<size_t>(slot) >= rendered->size() ||
          (*rendered)[slot] != value) {
        pins_match = false;
        break;
      }
    }
    if (!pins_match || AnyShadowed(v->ref_names, shadowed)) {
      ++v;
      continue;
    }
    Result<std::string> sql = Instantiate(v->sql, *rendered);
    if (!sql.ok()) {
      // Verified at insert; a failure here means the entry is corrupt.
      v = variants.erase(v);
      continue;
    }
    out->setup_sql.clear();
    out->result_sql = std::move(*sql);
    out->shape = v->shape;
    out->key_columns = v->key_columns;
    out->timings = StageTimings{};
    hits_->Increment();
    return FpResult::kHit;
  }
  misses_->Increment();
  return FpResult::kMiss;
}

void TranslationCache::Insert(uint64_t hash, const std::string& fp_text,
                              const std::vector<std::string>& rendered_params,
                              const Insertable& entry) {
  if (!enabled()) return;
  Shard& shard = ShardFor(hash);
  const uint64_t version = CurrentVersion();
  std::lock_guard<std::mutex> lock(shard.mu);
  FpEntry& e = shard.fp.FindOrInsert(fp_text);
  if (e.uncacheable) return;
  Cached c;
  c.sql = entry.sql_template;
  c.shape = entry.shape;
  c.key_columns = entry.key_columns;
  c.pins.reserve(entry.pinned_slots.size());
  for (int slot : entry.pinned_slots) {
    if (slot < 0 || static_cast<size_t>(slot) >= rendered_params.size()) {
      // A pin outside the parameter vector can never be re-checked.
      e.uncacheable = true;
      e.reason = "pinned slot outside parameter vector";
      e.variants.clear();
      uncacheable_->Increment();
      return;
    }
    c.pins.emplace_back(slot, rendered_params[slot]);
  }
  c.ref_tables = entry.ref_tables;
  c.ref_names = entry.ref_names;
  c.version = version;
  if (e.variants.size() >= options_.max_variants) {
    e.variants.erase(e.variants.begin());
    evictions_->Increment();
  }
  e.variants.push_back(std::move(c));
  inserts_->Increment();
  evictions_->Increment(shard.fp.Trim());
}

void TranslationCache::MarkUncacheable(uint64_t hash,
                                       const std::string& fp_text,
                                       std::string reason) {
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  FpEntry& e = shard.fp.FindOrInsert(fp_text);
  if (!e.uncacheable) uncacheable_->Increment();
  e.uncacheable = true;
  e.reason = std::move(reason);
  e.variants.clear();
  evictions_->Increment(shard.fp.Trim());
}

void TranslationCache::InvalidateTable(const std::string& table) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->fp.map.begin(); it != shard->fp.map.end();) {
      auto& variants = it->second.variants;
      for (auto v = variants.begin(); v != variants.end();) {
        bool refs = false;
        for (const auto& t : v->ref_tables) {
          if (t == table) {
            refs = true;
            break;
          }
        }
        if (refs) {
          v = variants.erase(v);
          invalidations_->Increment();
        } else {
          ++v;
        }
      }
      // Keep uncacheable markers; drop entries left with no variants.
      if (!it->second.uncacheable && variants.empty()) {
        it = shard->fp.Erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = shard->exact.map.begin(); it != shard->exact.map.end();) {
      bool refs = false;
      for (const auto& t : it->second.value.ref_tables) {
        if (t == table) {
          refs = true;
          break;
        }
      }
      if (refs) {
        it = shard->exact.Erase(it);
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
    size_t dropped = shard->fp.map.size() + shard->exact.map.size();
    shard->fp.Clear();
    shard->exact.Clear();
    invalidations_->Increment(dropped);
  }
}

Result<std::vector<std::string>> TranslationCache::RenderParams(
    const std::vector<QValue>& params) {
  std::vector<std::string> out;
  out.reserve(params.size());
  for (const QValue& p : params) {
    HQ_ASSIGN_OR_RETURN(std::string s, Serializer::RenderConstant(p));
    out.push_back(std::move(s));
  }
  return out;
}

Result<std::string> TranslationCache::Instantiate(
    const std::string& sql_template,
    const std::vector<std::string>& rendered_params) {
  std::string out;
  out.reserve(sql_template.size() + 16 * rendered_params.size());
  for (size_t i = 0; i < sql_template.size();) {
    char c = sql_template[i];
    if (c != '$' || i + 1 >= sql_template.size() ||
        !std::isdigit(static_cast<unsigned char>(sql_template[i + 1]))) {
      out.push_back(c);
      ++i;
      continue;
    }
    size_t j = i + 1;
    size_t n = 0;
    while (j < sql_template.size() &&
           std::isdigit(static_cast<unsigned char>(sql_template[j]))) {
      n = n * 10 + static_cast<size_t>(sql_template[j] - '0');
      ++j;
    }
    if (n == 0 || n > rendered_params.size()) {
      return InternalError(StrCat("translation cache: placeholder $", n,
                                  " outside parameter vector of size ",
                                  rendered_params.size()));
    }
    out += rendered_params[n - 1];
    i = j;
  }
  return out;
}

TranslationCache::Sizes TranslationCache::sizes() const {
  Sizes s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.fingerprint += shard->fp.map.size();
    s.exact += shard->exact.map.size();
  }
  return s;
}

}  // namespace hyperq
