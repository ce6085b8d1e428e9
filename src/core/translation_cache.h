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
#include "common/status.h"
#include "core/query_translator.h"
#include "qval/qvalue.h"

namespace hyperq {

/// Sharded, thread-safe cache of translations keyed by query fingerprint.
///
/// Two tiers:
///  - An exact-text tier keyed by the raw Q request: a hit skips the whole
///    pipeline (parse included) and replays the concrete result SQL.
///  - A fingerprint tier keyed by the normalized AST shape produced by
///    qlang::FingerprintProgram: literal atoms are lifted into an ordered
///    parameter vector, so `select from t where x > 5` and `... x > 7`
///    share one entry. A hit splices the current literals into the cached
///    `$n`-parameterized SQL template, skipping bind, xform and serialize.
///
/// Correctness guards carried per entry:
///  - catalog version: entries are stamped with the MDI catalog version at
///    insert and rejected (and dropped) when it has moved;
///  - referenced names: a hit is refused while any name the cached binding
///    resolved is currently shadowed by a session/local variable;
///  - pinned slots: lifted literals whose values were consumed structurally
///    during binding (take counts, select[n] limits, window sizes, cast
///    targets, sort column lists) must match the cached values exactly —
///    distinct pin values become distinct variants of the same fingerprint.
///
/// Fingerprints that ever fail template verification (the instantiated
/// template must reproduce the concrete SQL byte-for-byte) are marked
/// uncacheable so the translator stops re-attempting them. All entries are
/// shared across sessions; per-shard mutexes make every operation safe for
/// concurrent sessions.
class TranslationCache {
 public:
  struct Options {
    bool enabled = true;
    size_t shard_count = 8;
    size_t capacity_per_shard = 512;         ///< fingerprint entries/shard
    size_t exact_capacity_per_shard = 1024;  ///< exact-text entries/shard
    size_t max_variants = 4;  ///< pinned-value variants per fingerprint
  };

  /// Outcome of a fingerprint-tier lookup.
  enum class FpResult {
    kHit,         ///< `out` holds a ready Translation
    kMiss,        ///< translate normally, then Insert/MarkUncacheable
    kUncacheable  ///< known-bad fingerprint: translate normally, skip insert
  };

  /// What the translator stores after a cacheable miss.
  struct Insertable {
    std::string sql_template;  ///< result SQL with $n placeholders
    ResultShape shape = ResultShape::kTable;
    std::vector<std::string> key_columns;
    std::vector<int> pinned_slots;        ///< slots consumed structurally
    std::vector<std::string> ref_tables;  ///< backend tables referenced
    std::vector<std::string> ref_names;   ///< names resolved through scopes
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

  /// Exact tier: replays a previously translated request verbatim.
  bool LookupExact(const std::string& q_text, const ShadowFn& shadowed,
                   Translation* out);
  void InsertExact(const std::string& q_text, const Translation& t,
                   std::vector<std::string> ref_tables,
                   std::vector<std::string> ref_names);

  /// Fingerprint tier. On kHit, `out` carries the instantiated result SQL,
  /// shape and key columns (setup_sql empty, timings zeroed).
  FpResult Lookup(uint64_t hash, const std::string& fp_text,
                  const std::vector<QValue>& params, const ShadowFn& shadowed,
                  Translation* out);
  void Insert(uint64_t hash, const std::string& fp_text,
              const std::vector<std::string>& rendered_params,
              const Insertable& entry);
  void MarkUncacheable(uint64_t hash, const std::string& fp_text,
                       std::string reason);

  /// Drops every entry referencing `table` (both tiers).
  void InvalidateTable(const std::string& table);
  /// Drops everything.
  void Clear();

  /// Renders each lifted literal as the SQL fragment the serializer would
  /// have emitted for it.
  static Result<std::vector<std::string>> RenderParams(
      const std::vector<QValue>& params);
  /// Splices rendered literals into a `$n`-parameterized template.
  static Result<std::string> Instantiate(
      const std::string& sql_template,
      const std::vector<std::string>& rendered_params);

  struct Sizes {
    size_t fingerprint = 0;  ///< fingerprint entries (incl. uncacheable)
    size_t exact = 0;        ///< exact-text entries
  };
  Sizes sizes() const;

 private:
  /// One cached translation: concrete (exact tier, pins empty) or
  /// parameterized (fingerprint tier).
  struct Cached {
    std::string sql;
    ResultShape shape = ResultShape::kTable;
    std::vector<std::string> key_columns;
    /// Exact-tier entries replay their shard plan (shards or live table
    /// parts) verbatim: the literals are identical by construction.
    /// Fingerprint-tier hits deliberately carry no plan — a templated
    /// partial/merge pair is not worth the correctness risk, and the
    /// fallback paths (full-copy backend, merged snapshot) stay
    /// byte-identical.
    ShardPlan shard;
    /// (slot, rendered literal) pairs that must match the incoming params.
    std::vector<std::pair<int, std::string>> pins;
    std::vector<std::string> ref_tables;
    std::vector<std::string> ref_names;
    uint64_t version = 0;
  };

  struct FpEntry {
    bool uncacheable = false;
    std::string reason;
    std::vector<Cached> variants;
    std::list<std::string>::iterator lru_it;
    bool is_protected = false;
  };

  struct ExactEntry {
    Cached value;
    std::list<std::string>::iterator lru_it;
    bool is_protected = false;
  };

  /// One tier of one shard under segmented-LRU admission. A new key enters
  /// the probation list; a later touch promotes it to the protected list.
  /// Protected overflow is demoted to the head of probation and probation
  /// overflow is evicted, so keys seen once (ad-hoc traffic) cycle through
  /// the small probation list without displacing keys that were reused.
  template <typename Entry>
  struct Tier {
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> probation;  ///< front = most recent
    std::list<std::string> protect;    ///< front = most recent
    size_t probation_cap = 1;
    size_t protected_cap = 0;

    /// Splits `capacity` into a probation list of capacity/8 (at least
    /// one) and a protected list holding the rest.
    void SetCapacity(size_t capacity);
    /// Finds `key`, inserting a default entry at the head of probation
    /// when absent (reported through `inserted`, if given). An existing
    /// entry is touched.
    Entry& FindOrInsert(const std::string& key, bool* inserted = nullptr);
    /// Promotes (or refreshes) an entry that was just used.
    void Touch(Entry& e);
    /// Unlinks and drops the entry at `it`; returns the next iterator.
    typename std::unordered_map<std::string, Entry>::iterator Erase(
        typename std::unordered_map<std::string, Entry>::iterator it);
    /// Evicts from the tail of probation until it fits; returns how many.
    size_t Trim();
    void Clear();
  };

  struct Shard {
    mutable std::mutex mu;
    Tier<FpEntry> fp;
    Tier<ExactEntry> exact;
  };

  Shard& ShardFor(uint64_t hash) {
    return *shards_[hash % shards_.size()];
  }
  uint64_t CurrentVersion() const {
    return version_provider_ ? version_provider_() : 0;
  }
  static bool AnyShadowed(const std::vector<std::string>& names,
                          const ShadowFn& shadowed);

  Options options_;
  std::atomic<bool> enabled_;
  std::function<uint64_t()> version_provider_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Counter* hits_;
  Counter* hits_exact_;
  Counter* misses_;
  Counter* inserts_;
  Counter* evictions_;
  Counter* invalidations_;
  Counter* uncacheable_;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_TRANSLATION_CACHE_H_
