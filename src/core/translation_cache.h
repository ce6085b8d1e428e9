#ifndef HYPERQ_CORE_TRANSLATION_CACHE_H_
#define HYPERQ_CORE_TRANSLATION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/query_translator.h"

namespace hyperq {

/// Sharded, thread-safe cache of translations keyed by the exact text of
/// the Q request. A hit skips the whole pipeline (parse included) and
/// replays the concrete result SQL together with its shard plan (shards or
/// live table parts): the literals are identical by construction.
///
/// Correctness guards carried per entry:
///  - catalog version: entries are stamped with the MDI catalog version at
///    insert and rejected (and dropped) when it has moved;
///  - referenced names: a hit is refused while any name the cached binding
///    resolved is currently shadowed by a session/local variable.
///
/// All entries are shared across sessions; per-shard mutexes make every
/// operation safe for concurrent sessions.
class TranslationCache {
 public:
  struct Options {
    bool enabled = true;
    size_t shard_count = 8;
    size_t exact_capacity_per_shard = 1024;  ///< entries per shard
  };

  /// True when `name` is currently shadowed by a session/local variable.
  using ShadowFn = std::function<bool(const std::string&)>;

  TranslationCache();
  explicit TranslationCache(Options options);

  /// Installs the catalog-version source used to stamp and check entries.
  void SetVersionProvider(std::function<uint64_t()> provider) {
    version_provider_ = std::move(provider);
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Replays a previously translated request verbatim: result SQL, shape,
  /// key columns and shard plan (setup_sql empty, timings zeroed).
  bool LookupExact(const std::string& q_text, const ShadowFn& shadowed,
                   Translation* out);
  void InsertExact(const std::string& q_text, const Translation& t,
                   std::vector<std::string> ref_tables,
                   std::vector<std::string> ref_names);

  /// Drops every entry referencing `table`.
  void InvalidateTable(const std::string& table);
  /// Drops everything.
  void Clear();

  /// Number of cached translations.
  size_t size() const;

 private:
  struct Entry {
    std::string sql;
    ResultShape shape = ResultShape::kTable;
    std::vector<std::string> key_columns;
    ShardPlan shard;
    std::vector<std::string> ref_tables;
    std::vector<std::string> ref_names;
    uint64_t version = 0;
    std::list<std::string>::iterator lru_it;
    bool is_protected = false;
  };

  /// One shard of the cache under segmented-LRU admission. A new key enters
  /// the probation list; a later touch promotes it to the protected list.
  /// Protected overflow is demoted to the head of probation and probation
  /// overflow is evicted, so keys seen once (ad-hoc traffic) cycle through
  /// the small probation list without displacing keys that were reused.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> probation;  ///< front = most recent
    std::list<std::string> protect;    ///< front = most recent
    size_t probation_cap = 1;
    size_t protected_cap = 0;

    /// Splits `capacity` into a probation list of capacity/8 (at least
    /// one) and a protected list holding the rest.
    explicit Shard(size_t capacity);
    /// Finds `key`, inserting a default entry at the head of probation
    /// when absent (reported through `inserted`). An existing entry is
    /// touched.
    Entry& FindOrInsert(const std::string& key, bool* inserted);
    /// Promotes (or refreshes) an entry that was just used.
    void Touch(Entry& e);
    /// Unlinks and drops the entry at `it`; returns the next iterator.
    std::unordered_map<std::string, Entry>::iterator Erase(
        std::unordered_map<std::string, Entry>::iterator it);
    /// Evicts from the tail of probation until it fits; returns how many.
    size_t Trim();
    void Clear();
  };

  Shard& ShardFor(const std::string& q_text) {
    return *shards_[Fnv1a(q_text) % shards_.size()];
  }
  uint64_t CurrentVersion() const {
    return version_provider_ ? version_provider_() : 0;
  }

  Options options_;
  std::atomic<bool> enabled_;
  std::function<uint64_t()> version_provider_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Counter* hits_;
  Counter* misses_;
  Counter* inserts_;
  Counter* evictions_;
  Counter* invalidations_;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_TRANSLATION_CACHE_H_
