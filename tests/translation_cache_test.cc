#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/hyperq.h"
#include "core/loader.h"
#include "core/translation_cache.h"
#include "kdb/engine.h"
#include "qlang/fingerprint.h"
#include "qlang/parser.h"

namespace hyperq {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

// ---------------------------------------------------------------------------
// Fingerprint normalization (qlang layer)
// ---------------------------------------------------------------------------

QueryFingerprint FingerprintOf(const std::string& q) {
  Result<std::vector<AstPtr>> stmts = Parser::ParseProgram(q);
  EXPECT_TRUE(stmts.ok()) << q;
  return FingerprintProgram(*stmts);
}

TEST(FingerprintTest, LiteralValuesDoNotChangeTheFingerprint) {
  QueryFingerprint a = FingerprintOf("select from trades where Price > 5.0");
  QueryFingerprint b =
      FingerprintOf("select from trades where Price > 250.25");
  ASSERT_TRUE(a.cacheable);
  ASSERT_TRUE(b.cacheable);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.hash, b.hash);
  ASSERT_EQ(a.params.size(), 1u);
  ASSERT_EQ(b.params.size(), 1u);
  EXPECT_DOUBLE_EQ(a.params[0].AsFloat(), 5.0);
  EXPECT_DOUBLE_EQ(b.params[0].AsFloat(), 250.25);
}

TEST(FingerprintTest, LiteralTypesDoChangeTheFingerprint) {
  QueryFingerprint a = FingerprintOf("select from trades where Size > 5");
  QueryFingerprint b = FingerprintOf("select from trades where Size > 5.0");
  ASSERT_TRUE(a.cacheable);
  ASSERT_TRUE(b.cacheable);
  EXPECT_NE(a.text, b.text);
}

TEST(FingerprintTest, NullAtomsStayStructural) {
  QueryFingerprint a = FingerprintOf("select from trades where Price = 0N");
  ASSERT_TRUE(a.cacheable);
  EXPECT_TRUE(a.params.empty());
}

TEST(FingerprintTest, VectorLiteralsStayStructural) {
  QueryFingerprint a =
      FingerprintOf("select from trades where Symbol in `GOOG`IBM");
  QueryFingerprint b =
      FingerprintOf("select from trades where Symbol in `MSFT`IBM");
  ASSERT_TRUE(a.cacheable);
  ASSERT_TRUE(b.cacheable);
  EXPECT_NE(a.text, b.text);  // the list is part of the structure
}

TEST(FingerprintTest, SideEffectingStatementsAreUncacheable) {
  EXPECT_FALSE(FingerprintOf("x: 5").cacheable);
  EXPECT_FALSE(FingerprintOf("f: {[a] a+1}").cacheable);
  EXPECT_FALSE(
      FingerprintOf("a: 1; select from trades").cacheable);  // multi-stmt
}

TEST(FingerprintTest, ParameterizeMatchesTraversalOrder) {
  Result<std::vector<AstPtr>> stmts = Parser::ParseProgram(
      "select Price + 1.5 from trades where Size > 100");
  ASSERT_TRUE(stmts.ok());
  QueryFingerprint fp = FingerprintProgram(*stmts);
  ASSERT_TRUE(fp.cacheable);
  ASSERT_EQ(fp.params.size(), 2u);
  AstPtr rewritten = ParameterizeStatement((*stmts)[0]);
  ASSERT_NE(rewritten, (*stmts)[0]);  // something was lifted
  // Re-fingerprinting the original is stable.
  QueryFingerprint fp2 = FingerprintProgram(*stmts);
  EXPECT_EQ(fp.text, fp2.text);
}

// ---------------------------------------------------------------------------
// Instantiate / splicing
// ---------------------------------------------------------------------------

TEST(InstantiateTest, SplicesPlaceholdersInOrder) {
  Result<std::string> r = TranslationCache::Instantiate(
      "SELECT * FROM t WHERE a > $1 AND b = $2", {"5", "'x'::varchar"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "SELECT * FROM t WHERE a > 5 AND b = 'x'::varchar");
}

TEST(InstantiateTest, MultiDigitPlaceholders) {
  std::vector<std::string> params;
  for (int i = 0; i < 12; ++i) params.push_back(std::to_string(i));
  Result<std::string> r = TranslationCache::Instantiate("$10 $11 $1", params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "9 10 0");
}

TEST(InstantiateTest, OutOfRangePlaceholderIsAnError) {
  EXPECT_FALSE(TranslationCache::Instantiate("a = $3", {"1", "2"}).ok());
  EXPECT_FALSE(TranslationCache::Instantiate("a = $0", {"1"}).ok());
}

TEST(InstantiateTest, DollarWithoutDigitsPassesThrough) {
  Result<std::string> r = TranslationCache::Instantiate("a = '$' || $1", {"b"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "a = '$' || b");
}

// ---------------------------------------------------------------------------
// End-to-end translator integration
// ---------------------------------------------------------------------------

/// Two sessions over one backend: `hot_` caches, `cold_` has the cache
/// disabled and provides the reference SQL/results for every query.
class TranslationCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kdb::Interpreter loader;
    ASSERT_TRUE(loader
                    .EvalText(
                        "trades: ([] Symbol:`GOOG`IBM`GOOG`MSFT`IBM;"
                        " Price:720.5 151.2 721.0 52.1 150.9;"
                        " Size:100 200 150 300 120;"
                        " Time:09:30:00.000 09:30:01.000 09:30:02.000 "
                        "09:30:03.000 09:30:04.000)")
                    .ok());
    ASSERT_TRUE(
        LoadQTable(&db_, "trades", *loader.GetGlobal("trades")).ok());
    hot_ = std::make_unique<HyperQSession>(&db_);
    HyperQSession::Options off;
    off.translation_cache.enabled = false;
    cold_ = std::make_unique<HyperQSession>(&db_, off);
  }

  /// Asserts the third translation of `q` (guaranteed warm) replays the
  /// cold session's SQL byte-for-byte and flags the hit.
  void ExpectHotMatchesCold(const std::string& q) {
    Result<Translation> first = hot_->Translate(q);
    ASSERT_TRUE(first.ok()) << q << ": " << first.status().ToString();
    Result<Translation> warm = hot_->Translate(q);
    ASSERT_TRUE(warm.ok()) << q;
    Result<Translation> reference = cold_->Translate(q);
    ASSERT_TRUE(reference.ok()) << q;
    EXPECT_TRUE(warm->cache_hit) << q;
    EXPECT_EQ(warm->result_sql, reference->result_sql) << q;
    EXPECT_FALSE(reference->cache_hit) << q;
    // Executed results agree too.
    Result<QValue> hot_result = hot_->Query(q);
    Result<QValue> cold_result = cold_->Query(q);
    ASSERT_TRUE(hot_result.ok()) << q;
    ASSERT_TRUE(cold_result.ok()) << q;
    EXPECT_TRUE(*hot_result == *cold_result) << q;
  }

  sqldb::Database db_;
  std::unique_ptr<HyperQSession> hot_;
  std::unique_ptr<HyperQSession> cold_;
};

TEST_F(TranslationCacheTest, ExactRepeatIsAHit) {
  const std::string q = "select Price from trades where Symbol=`GOOG";
  Result<Translation> miss = hot_->Translate(q);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->cache_hit);
  Result<Translation> hit = hot_->Translate(q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->result_sql, miss->result_sql);
  EXPECT_EQ(hit->shape, miss->shape);
}

TEST_F(TranslationCacheTest, LiteralVariantIsAFingerprintHit) {
  uint64_t hits_before = CounterValue("translation_cache.hits");
  ASSERT_TRUE(hot_->Translate("select from trades where Price > 100.0").ok());
  Result<Translation> variant =
      hot_->Translate("select from trades where Price > 500.25");
  ASSERT_TRUE(variant.ok());
  EXPECT_TRUE(variant->cache_hit);
  EXPECT_GT(CounterValue("translation_cache.hits"), hits_before);
  // The spliced literal appears in the replayed SQL.
  EXPECT_NE(variant->result_sql.find("500.25"), std::string::npos)
      << variant->result_sql;
  Result<Translation> reference =
      cold_->Translate("select from trades where Price > 500.25");
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(variant->result_sql, reference->result_sql);
}

TEST_F(TranslationCacheTest, HotSqlIsByteIdenticalAcrossQueryShapes) {
  const char* kQueries[] = {
      "select from trades",
      "select Price, Size from trades where Symbol=`IBM",
      "select from trades where Price > 200.0, Size < 250",
      "select sum Size by Symbol from trades",
      "select m: avg Price, n: count Size by Symbol from trades "
      "where Price > 100.0",
      "exec max Price from trades where Size > 50",
      "update v: Price*1.5 from trades where Size > 100",
      "select from trades where Symbol in `GOOG`IBM",
      "select from trades where Size within 100 200",
      "2#select from trades",
      "select[3] from trades",
      "`Price xasc trades",
      "select m: 2 mavg Price from trades",
      "select Price - prev Price from trades",
      "select first Price, last Size by Symbol from trades",
  };
  for (const char* q : kQueries) ExpectHotMatchesCold(q);
}

// Literal values consumed structurally (take counts, select[n] limits,
// window sizes, sort columns) are pinned: a different value must NOT reuse
// the cached plan, and must translate to the cold session's SQL.
TEST_F(TranslationCacheTest, PinnedSlotsDoNotLeakAcrossValues) {
  struct Pair {
    const char* first;
    const char* second;
  };
  const Pair kPairs[] = {
      {"2#select from trades", "4#select from trades"},
      {"-2#select from trades", "2#select from trades"},
      {"select[2] from trades", "select[4] from trades"},
      {"`Price xasc trades", "`Size xasc trades"},
      {"select m: 2 mavg Price from trades",
       "select m: 4 mavg Price from trades"},
  };
  for (const Pair& p : kPairs) {
    ASSERT_TRUE(hot_->Translate(p.first).ok()) << p.first;
    Result<Translation> second = hot_->Translate(p.second);
    ASSERT_TRUE(second.ok()) << p.second;
    Result<Translation> reference = cold_->Translate(p.second);
    ASSERT_TRUE(reference.ok()) << p.second;
    EXPECT_EQ(second->result_sql, reference->result_sql)
        << p.first << " vs " << p.second;
    Result<QValue> hot_result = hot_->Query(p.second);
    Result<QValue> cold_result = cold_->Query(p.second);
    ASSERT_TRUE(hot_result.ok()) << p.second;
    ASSERT_TRUE(cold_result.ok()) << p.second;
    EXPECT_TRUE(*hot_result == *cold_result) << p.second;
  }
}

TEST_F(TranslationCacheTest, PinnedVariantsEachGetTheirOwnEntry) {
  // After both values have been translated once, each repeats as a hit.
  ASSERT_TRUE(hot_->Translate("select[2] from trades").ok());
  ASSERT_TRUE(hot_->Translate("select[4] from trades").ok());
  Result<Translation> two = hot_->Translate("select[2] from trades");
  Result<Translation> four = hot_->Translate("select[4] from trades");
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(four.ok());
  EXPECT_TRUE(two->cache_hit);
  EXPECT_TRUE(four->cache_hit);
  EXPECT_NE(two->result_sql, four->result_sql);
}

TEST_F(TranslationCacheTest, CatalogVersionBumpInvalidatesEntries) {
  const std::string q = "select Price from trades";
  ASSERT_TRUE(hot_->Translate(q).ok());
  Result<Translation> hit = hot_->Translate(q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);

  // Any catalog change (here: DML appending rows) bumps the version; the
  // stale entry must not be replayed.
  ASSERT_TRUE(hot_->gateway()
                  .Execute("INSERT INTO \"trades\" (\"Symbol\", \"Price\", "
                           "\"Size\", \"Time\", \"ordcol\") VALUES ('AMZN', "
                           "99.5, 10, TIME '09:31:00', 6)")
                  .ok());
  Result<Translation> after = hot_->Translate(q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  // And the re-translation repopulates the cache at the new version.
  Result<Translation> again = hot_->Translate(q);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  Result<QValue> rows = hot_->Query(q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->Count(), 6u);  // the hit sees the new row
}

TEST_F(TranslationCacheTest, InvalidateTableEvictsMatchingEntries) {
  ASSERT_TRUE(hot_->Translate("select Price from trades").ok());
  EXPECT_GT(hot_->translation_cache().sizes().fingerprint, 0u);
  uint64_t inval_before = CounterValue("translation_cache.invalidations");
  hot_->metadata_cache().InvalidateTable("trades");
  EXPECT_EQ(hot_->translation_cache().sizes().fingerprint, 0u);
  EXPECT_EQ(hot_->translation_cache().sizes().exact, 0u);
  EXPECT_GT(CounterValue("translation_cache.invalidations"), inval_before);
  Result<Translation> after = hot_->Translate("select Price from trades");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
}

TEST_F(TranslationCacheTest, FullMetadataInvalidateClearsTheCache) {
  ASSERT_TRUE(hot_->Translate("select Price from trades").ok());
  hot_->metadata_cache().Invalidate();
  EXPECT_EQ(hot_->translation_cache().sizes().fingerprint, 0u);
  EXPECT_EQ(hot_->translation_cache().sizes().exact, 0u);
}

TEST_F(TranslationCacheTest, ShadowedNameRefusesTheCachedEntry) {
  const std::string q = "select Price from trades where Price > 100.0";
  ASSERT_TRUE(hot_->Translate(q).ok());
  ASSERT_TRUE(hot_->Translate(q)->cache_hit);
  // Shadow the table with a session variable; the cached entry must not
  // be replayed while the shadow is live.
  ASSERT_TRUE(hot_->Translate("trades: 5").ok());
  Result<Translation> shadowed = hot_->Translate(q);
  if (shadowed.ok()) {
    EXPECT_FALSE(shadowed->cache_hit);
  }
}

TEST_F(TranslationCacheTest, SideEffectingStatementsAreNeverInserted) {
  TranslationCache::Sizes before = hot_->translation_cache().sizes();
  ASSERT_TRUE(hot_->Translate("x: 5").ok());
  ASSERT_TRUE(hot_->Translate("f: {[a] a+1}").ok());
  ASSERT_TRUE(hot_->Translate("f[2]").ok());
  ASSERT_TRUE(hot_->Translate("y: 1; z: 2").ok());
  TranslationCache::Sizes after = hot_->translation_cache().sizes();
  EXPECT_EQ(after.fingerprint, before.fingerprint);
  EXPECT_EQ(after.exact, before.exact);
}

TEST_F(TranslationCacheTest, ScopeVariableReadsAreNeverShared) {
  ASSERT_TRUE(hot_->Translate("lim: 200.0").ok());
  TranslationCache::Sizes before = hot_->translation_cache().sizes();
  Result<Translation> t =
      hot_->Translate("select from trades where Price > lim");
  ASSERT_TRUE(t.ok());
  TranslationCache::Sizes after = hot_->translation_cache().sizes();
  // The binding read `lim`'s current value; caching it would freeze it.
  EXPECT_EQ(after.fingerprint, before.fingerprint);
  EXPECT_EQ(after.exact, before.exact);
  // And changing the variable changes the translation.
  ASSERT_TRUE(hot_->Translate("lim: 500.0").ok());
  Result<Translation> t2 =
      hot_->Translate("select from trades where Price > lim");
  ASSERT_TRUE(t2.ok());
  EXPECT_NE(t->result_sql, t2->result_sql);
}

TEST_F(TranslationCacheTest, DisabledCacheNeverHits) {
  const std::string q = "select Price from trades";
  ASSERT_TRUE(cold_->Translate(q).ok());
  Result<Translation> repeat = cold_->Translate(q);
  ASSERT_TRUE(repeat.ok());
  EXPECT_FALSE(repeat->cache_hit);
  EXPECT_EQ(cold_->translation_cache().sizes().fingerprint, 0u);
}

TEST_F(TranslationCacheTest, RuntimeDisableAndEnableBuiltins) {
  const std::string q = "select Price from trades";
  ASSERT_TRUE(hot_->Query(q).ok());
  ASSERT_TRUE(hot_->Query(".hyperq.cacheDisable[]").ok());
  Result<Translation> off = hot_->Translate(q);
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->cache_hit);
  ASSERT_TRUE(hot_->Query(".hyperq.cacheEnable[]").ok());
  Result<Translation> on = hot_->Translate(q);
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(on->cache_hit);
  ASSERT_TRUE(hot_->Query(".hyperq.cacheClear[]").ok());
  EXPECT_EQ(hot_->translation_cache().sizes().fingerprint, 0u);
  Result<Translation> cleared = hot_->Translate(q);
  ASSERT_TRUE(cleared.ok());
  EXPECT_FALSE(cleared->cache_hit);
}

TEST_F(TranslationCacheTest, StatsBuiltinExposesCacheCounters) {
  ASSERT_TRUE(hot_->Query("select Price from trades").ok());
  ASSERT_TRUE(hot_->Query("select Price from trades").ok());
  Result<QValue> stats = hot_->Query(".hyperq.stats[]");
  ASSERT_TRUE(stats.ok());
  const QTable& table = stats->Table();
  const std::vector<std::string>& metric = table.columns[0].SymsView();
  const std::vector<int64_t>& count = table.columns[2].Ints();
  int64_t hits = -1;
  int64_t inserts = -1;
  for (size_t i = 0; i < metric.size(); ++i) {
    if (metric[i] == "translation_cache.hits") hits = count[i];
    if (metric[i] == "translation_cache.inserts") inserts = count[i];
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(inserts, 0);
}

TEST_F(TranslationCacheTest, HitLatencyHistogramIsRecorded) {
  ASSERT_TRUE(hot_->Translate("select Price from trades").ok());
  ASSERT_TRUE(hot_->Translate("select Price from trades").ok());
  Result<QValue> stats = hot_->Query(".hyperq.stats[]");
  ASSERT_TRUE(stats.ok());
  const QTable& table = stats->Table();
  const std::vector<std::string>& metric = table.columns[0].SymsView();
  const std::vector<int64_t>& count = table.columns[2].Ints();
  int64_t samples = -1;
  for (size_t i = 0; i < metric.size(); ++i) {
    if (metric[i] == "translate.cache_hit_us") samples = count[i];
  }
  EXPECT_GT(samples, 0);
}

TEST_F(TranslationCacheTest, LruEvictsWhenCapacityIsExceeded) {
  HyperQSession::Options tiny;
  tiny.translation_cache.shard_count = 1;
  tiny.translation_cache.capacity_per_shard = 4;
  tiny.translation_cache.exact_capacity_per_shard = 4;
  HyperQSession small(&db_, tiny);
  uint64_t evictions_before = CounterValue("translation_cache.evictions");
  // 6 structurally distinct queries through a capacity-4 single shard.
  const char* kQueries[] = {
      "select Price from trades",    "select Size from trades",
      "select Symbol from trades",   "select Time from trades",
      "select Price, Size from trades", "select from trades",
  };
  for (const char* q : kQueries) ASSERT_TRUE(small.Translate(q).ok()) << q;
  EXPECT_LE(small.translation_cache().sizes().fingerprint, 4u);
  EXPECT_LE(small.translation_cache().sizes().exact, 4u);
  EXPECT_GT(CounterValue("translation_cache.evictions"), evictions_before);
}

TEST_F(TranslationCacheTest, OneShotTrafficDoesNotDisplaceReusedEntries) {
  HyperQSession::Options tiny;
  tiny.translation_cache.shard_count = 1;
  // Probation holds 16 / 8 = 2 entries per tier; protected the other 14.
  tiny.translation_cache.capacity_per_shard = 16;
  tiny.translation_cache.exact_capacity_per_shard = 16;
  HyperQSession small(&db_, tiny);
  const std::string reused = "select Price from trades where Symbol=`IBM";
  ASSERT_TRUE(small.Translate(reused).ok());
  Result<Translation> second = small.Translate(reused);  // promotes it
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  // Far more structurally distinct one-shot queries than the capacity.
  for (int i = 0; i < 40; ++i) {
    std::string q = "select p" + std::to_string(i) + ":Price from trades";
    ASSERT_TRUE(small.Translate(q).ok()) << q;
  }
  Result<Translation> later = small.Translate(reused);
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(later->cache_hit);
  // The one-shot entries never left probation.
  EXPECT_LE(small.translation_cache().sizes().exact, 3u);
  EXPECT_LE(small.translation_cache().sizes().fingerprint, 3u);
}

// Multi-threaded hit/miss/evict/invalidate stress over a shared cache.
// Run under TSAN in scripts/ci.sh.
TEST_F(TranslationCacheTest, ConcurrentSessionsShareOneCacheSafely) {
  TranslationCache::Options cache_opts;
  cache_opts.shard_count = 4;
  cache_opts.capacity_per_shard = 16;  // small: forces concurrent eviction
  cache_opts.exact_capacity_per_shard = 16;
  TranslationCache shared(cache_opts);
  shared.SetVersionProvider([this]() { return db_.catalog().version(); });

  constexpr int kThreads = 8;
  constexpr int kIters = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      HyperQSession::Options opts;
      opts.shared_translation_cache = &shared;
      HyperQSession session(&db_, opts);
      for (int i = 0; i < kIters; ++i) {
        // Rotate literals so the fingerprint tier sees hits and misses.
        std::string q = "select from trades where Price > " +
                        std::to_string(100 + ((t * kIters + i) % 7)) + ".0";
        if (!session.Query(q).ok()) failures.fetch_add(1);
        if (i % 20 == 9) shared.InvalidateTable("trades");
        if (i % 25 == 24) shared.Clear();
        if (t == 0 && i % 30 == 29) {
          shared.set_enabled(false);
          shared.set_enabled(true);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace hyperq
