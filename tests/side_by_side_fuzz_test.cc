#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/hyperq.h"
#include "core/loader.h"
#include "ingest/hybrid_gateway.h"
#include "ingest/ingest.h"
#include "protocol/qipc/qipc.h"
#include "testing/market_data.h"
#include "testing/shrinker.h"
#include "testing/side_by_side.h"

namespace hyperq {
namespace testing {
namespace {

/// Grammar-based fuzzing of the translatable Q subset: random queries are
/// generated from the customer-workload shapes (§5-§6) and run through the
/// side-by-side framework. Any disagreement between the mini-kdb+ engine
/// and Hyper-Q-on-SQL is a translation bug. Agreement-on-error also counts:
/// the generator intentionally produces some untranslatable corners.
class SideBySideFuzz : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    MarketDataOptions opts;
    opts.seed = GetParam();
    opts.symbols = {"AAPL", "GOOG", "IBM", "MSFT"};
    opts.trades_per_symbol = 30;
    opts.quotes_per_symbol = 90;
    MarketData data = GenerateMarketData(opts);
    ASSERT_TRUE(harness_.LoadTable("trades", data.trades).ok());
    ASSERT_TRUE(harness_.LoadTable("quotes", data.quotes).ok());
    // The same feed squeezed into 40 ms: many trades and quotes share a
    // time, so as-of joins meet ties on the quote side.
    opts.close_millis = opts.open_millis + 40;
    MarketData dense = GenerateMarketData(opts);
    ASSERT_TRUE(harness_.LoadTable("dtrades", dense.trades).ok());
    ASSERT_TRUE(harness_.LoadTable("dquotes", dense.quotes).ok());
  }

  Rng rng_{GetParam() * 7919 + 1};
  SideBySideHarness harness_;

  std::string RandomColumn() {
    static const char* kCols[] = {"Price", "Size", "Time"};
    return kCols[rng_.Below(3)];
  }

  std::string RandomCmp() {
    static const char* kOps[] = {">", "<", ">=", "<=", "=", "<>"};
    return kOps[rng_.Below(6)];
  }

  std::string RandomSymbolLit() {
    static const char* kSyms[] = {"`AAPL", "`GOOG", "`IBM", "`MSFT",
                                  "`NOPE"};
    return kSyms[rng_.Below(5)];
  }

  std::string RandomScalarExpr() {
    switch (rng_.Below(5)) {
      case 0:
        return RandomColumn();
      case 1:
        return StrCat("2*", RandomColumn());
      case 2:
        return StrCat(RandomColumn(), "+", RandomColumn());
      case 3:
        return StrCat("abs neg ", RandomColumn());
      default:
        return StrCat(RandomColumn(), "%3");
    }
  }

  /// `col op lit` or `lit op col`. One literal in four is the column
  /// type's null, which q orders below every value.
  std::string RandomLiteralCmp(const char* col, const std::string& lit,
                               const char* null) {
    const std::string l = rng_.Below(4) == 0 ? null : lit;
    return rng_.Below(4) == 0 ? StrCat(l, RandomCmp(), col)
                              : StrCat(col, RandomCmp(), l);
  }

  std::string RandomPriceCmp() {
    return RandomLiteralCmp("Price", StrCat(80 + rng_.Below(100), ".0"),
                            "0n");
  }

  std::string RandomSymbolEq() {
    return StrCat("Symbol=", rng_.Below(6) == 0 ? "`" : RandomSymbolLit());
  }

  std::string RandomCondition() {
    switch (rng_.Below(6)) {
      case 0:
        return RandomPriceCmp();
      case 1:
        return RandomSymbolEq();
      case 2:
        return StrCat("Symbol in ", RandomSymbolLit(), RandomSymbolLit());
      case 3:
        return StrCat("Size within ", 100 * rng_.Below(20), " ",
                      2000 + 100 * rng_.Below(30));
      case 4:
        return StrCat("not ", RandomCondition());
      default:
        return RandomLiteralCmp("Size", StrCat(rng_.Below(5000)), "0N");
    }
  }

  std::string RandomAgg() {
    static const char* kAggs[] = {"sum", "avg", "min", "max", "count",
                                  "first", "last"};
    return StrCat(kAggs[rng_.Below(7)], " ", RandomColumn());
  }

  std::string RandomQuery() {
    switch (rng_.Below(6)) {
      case 0: {  // plain projection + filters
        std::string q = StrCat("select Symbol, v: ", RandomScalarExpr(),
                               " from trades");
        if (rng_.Below(2) == 0) {
          q += StrCat(" where ", RandomCondition());
          if (rng_.Below(2) == 0) q += StrCat(", ", RandomCondition());
        }
        return q;
      }
      case 1: {  // grouped aggregates
        std::string q = StrCat("select a: ", RandomAgg(), ", b: ",
                               RandomAgg(), " by Symbol from trades");
        if (rng_.Below(2) == 0) q += StrCat(" where ", RandomCondition());
        return q;
      }
      case 2:  // scalar aggregate, bare or inside an expression
        return StrCat("exec ",
                      rng_.Below(3) == 0
                          ? StrCat("2*sum ", rng_.Below(2) == 0 ? "Size"
                                                                : "Price")
                          : RandomAgg(),
                      " from trades where ", RandomCondition());
      case 3: {  // update
        if (rng_.Below(2) == 0) {
          return StrCat("update v: ", RandomScalarExpr(),
                        " from trades where ", RandomCondition());
        }
        return StrCat("update m: ", RandomAgg(),
                      " by Symbol from trades");
      }
      case 4: {  // sort + take / select[n] paging / fby
        switch (rng_.Below(3)) {
          case 0:
            return StrCat(1 + rng_.Below(20), "#`", RandomColumn(),
                          rng_.Below(2) == 0 ? " xasc" : " xdesc",
                          " trades");
          case 1:
            return StrCat("select[", 1 + rng_.Below(15), ";",
                          rng_.Below(2) == 0 ? ">" : "<", RandomColumn(),
                          "] from trades");
          default:
            return StrCat("select from trades where ", RandomColumn(),
                          "=(", rng_.Below(2) == 0 ? "max" : "min", ";",
                          RandomColumn(), ") fby Symbol");
        }
      }
      default: {  // as-of join with a filtered left side
        const bool dense = rng_.Below(2) == 0;  // quote times repeat
        return StrCat(
            "aj[`Symbol`Time; select Symbol, Time, Price from ",
            dense ? "dtrades" : "trades", " where ", RandomCondition(),
            "; select Symbol, Time, Bid from ", dense ? "dquotes" : "quotes",
            "]");
      }
    }
  }

  std::string RandomWindowFunc() {
    // Running/adjacent-row functions the translator lowers to SQL window
    // functions (lag/lead/windowed aggregates). `ratios` is translatable
    // but the oracle lacks it, so it stays out of the sweep.
    static const char* kWins[] = {"sums", "mins", "maxs", "deltas", "prev",
                                  "next"};
    return kWins[rng_.Below(6)];
  }

  std::string RandomGroupedAgg() {
    static const char* kAggs[] = {"sum", "avg", "min",   "max", "count",
                                  "first", "last", "med", "dev", "var"};
    return StrCat(kAggs[rng_.Below(10)], " ", RandomColumn());
  }

  /// Grouped-aggregation and window-function shapes, exercising the
  /// executor's grouped (multi-aggregate, computed keys) and windowed
  /// paths end to end against the oracle.
  std::string RandomGroupedOrWindowQuery() {
    switch (rng_.Below(5)) {
      case 0: {  // multi-aggregate grouping
        std::string q =
            StrCat("select a: ", RandomGroupedAgg(), ", b: ",
                   RandomGroupedAgg(), ", c: ", RandomGroupedAgg(),
                   " by Symbol from trades");
        if (rng_.Below(2) == 0) q += StrCat(" where ", RandomCondition());
        return q;
      }
      case 1:  // grouped over a computed key (xbar bucketing)
        return StrCat("select n: count Price, s: ", RandomGroupedAgg(),
                      " by bucket: 100 xbar Size from trades");
      case 2:  // running/window function down a filtered table
        return StrCat("select Symbol, Time, w: ", RandomWindowFunc(), " ",
                      RandomColumn(), " from trades where Symbol=",
                      RandomSymbolLit());
      case 3:  // window materialized, then grouped aggregation over it
        return StrCat("W: select Symbol, Time, Price, w: ",
                      RandomWindowFunc(), " ", RandomColumn(),
                      " from trades where Symbol=", RandomSymbolLit(),
                      "; select hi: max w, n: count w by Symbol from W");
      default:  // adjacent-row deltas via prev alongside another window
        return StrCat("select Symbol, d: Price - prev Price, x: ",
                      RandomWindowFunc(), " Size from trades where Symbol=",
                      RandomSymbolLit());
    }
  }

  /// Hot dashboard shapes: flat scans and plain column projections,
  /// conjunctive literal filters (comparisons, symbol equality, `in`
  /// lists, `within` ranges), grouped/scalar aggregates, and sort+take
  /// paging — the translatable subset whose SQL takes the executor's leaf
  /// predicates and grouping through the selection. The general
  /// RandomQuery corpus strays further (computed expressions, fby, joins).
  std::string RandomHotCondition() {
    switch (rng_.Below(4)) {
      case 0:
        return RandomPriceCmp();
      case 1:
        return RandomSymbolEq();
      case 2:
        return StrCat("Symbol in ", RandomSymbolLit(), RandomSymbolLit());
      default:
        return StrCat("Size within ", 100 * rng_.Below(20), " ",
                      2000 + 100 * rng_.Below(30));
    }
  }

  std::string RandomHotQuery() {
    switch (rng_.Below(6)) {
      case 0: {  // plain colref projection
        std::string q = "select Symbol, Price, Size from trades";
        if (rng_.Below(2) == 0) q += StrCat(" where ", RandomHotCondition());
        return q;
      }
      case 1: {  // bare scan
        std::string q = "select from trades";
        if (rng_.Below(2) == 0) q += StrCat(" where ", RandomHotCondition());
        return q;
      }
      case 2: {  // grouped aggregates
        std::string q = StrCat("select a: ", RandomAgg(), ", b: ",
                               RandomAgg(), " by Symbol from trades");
        if (rng_.Below(2) == 0) q += StrCat(" where ", RandomHotCondition());
        return q;
      }
      case 3: {  // scalar aggregate
        // `sum` over a filter that matches nothing (Symbol=`NOPE) is 0 in
        // q; the translator spells it COALESCE(SUM(x), 0).
        static const char* kExecAggs[] = {"avg",   "min",  "max", "count",
                                          "first", "last", "sum"};
        return StrCat("exec ", kExecAggs[rng_.Below(7)], " ", RandomColumn(),
                      " from trades where ", RandomHotCondition());
      }
      case 4:  // sort + take
        return StrCat(1 + rng_.Below(20), "#`", RandomColumn(),
                      rng_.Below(2) == 0 ? " xasc" : " xdesc", " trades");
      default:  // select[n;>Col] paging
        return StrCat("select[", 1 + rng_.Below(15), ";",
                      rng_.Below(2) == 0 ? ">" : "<", RandomColumn(),
                      "] from trades");
    }
  }

  /// On a mismatch, delta-debug the query down to a 1-minimal reproducer
  /// and write a replayable artifact (tests/artifacts, or
  /// $HYPERQ_ARTIFACT_DIR); returns text to append to the failure message.
  std::string ShrinkAndArchive(
      const SideBySideHarness::Comparison& failure) {
    ShrinkOutcome s = ShrinkQuery(
        failure.query,
        [this](const std::string& cand) { return !harness_.Run(cand).match; });
    Result<std::string> path = WriteFailureArtifact(
        "tests/artifacts", GetParam(), failure, s.minimized);
    return StrCat("\n  minimized (", s.tokens_before, " -> ",
                  s.tokens_after, " tokens): ", s.minimized,
                  "\n  artifact: ",
                  path.ok() ? *path : path.status().ToString());
  }

  /// Multi-statement pipelines mixing `select … by … where` with as-of
  /// joins — the dominant customer shape of §2.1 (filter trades, join the
  /// prevailing quote as-of each trade, aggregate per symbol). Each
  /// statement's materialized variable feeds the next one.
  std::string RandomPipeline() {
    switch (rng_.Below(4)) {
      case 0:  // filtered trades materialized, then joined
        return StrCat(
            "FT: select Symbol, Time, Price from trades where ",
            RandomCondition(),
            "; aj[`Symbol`Time; FT; select Symbol, Time, Bid, Ask from "
            "quotes]");
      case 1:  // join materialized, then grouped aggregation over it
        return StrCat(
            "J: aj[`Symbol`Time; select Symbol, Time, Price, Size from "
            "trades where ",
            RandomCondition(),
            "; select Symbol, Time, Bid from quotes]; select hi: max "
            "Price, lo: min Price, b: ",
            rng_.Below(2) == 0 ? "avg" : "max",
            " Bid by Symbol from J");
      case 2:  // join, then filter on a joined-in quote column, grouped
        return StrCat(
            "J2: aj[`Symbol`Time; select Symbol, Time, Price from trades; "
            "select Symbol, Time, Bid from quotes]; select n: count "
            "Price, m: ",
            rng_.Below(2) == 0 ? "avg Bid" : "max Price",
            " by Symbol from J2 where Bid<Price");
      default:  // two-step: grouped aggregate over a filtered snapshot
        return StrCat(
            "S: select Symbol, Time, Price, Size from trades where ",
            RandomCondition(), "; select v: ", RandomAgg(),
            ", w: sum Size by Symbol from S where ", RandomCondition());
    }
  }
};

TEST_P(SideBySideFuzz, RandomQueriesAgree) {
  int checked = 0;
  for (int k = 0; k < 40; ++k) {
    std::string q = RandomQuery();
    SideBySideHarness::Comparison c = harness_.Run(q);
    EXPECT_TRUE(c.match) << "seed " << GetParam() << " query: " << q
                         << "\nkdb:    " << c.kdb_result.ToString()
                         << "\nhyperq: " << c.hyperq_result.ToString()
                         << "\nkdb err: " << c.kdb_error
                         << "\nhq err:  " << c.hyperq_error
                         << "\nsql: " << c.sql;
    if (c.match && !c.both_failed) ++checked;
  }
  // The generator must produce mostly executable queries, or the sweep
  // proves nothing.
  EXPECT_GE(checked, 20) << "too few queries actually executed";
}

/// Every query runs twice: the second run is served by the translation
/// cache and must produce byte-identical SQL
/// and identical results. Single statements only — pipelines materialize
/// HQ_TEMP_<n> variables whose generated names legitimately differ between
/// runs.
TEST_P(SideBySideFuzz, HotCacheResultsMatchColdResults) {
  Counter* hits =
      MetricsRegistry::Global().GetCounter("translation_cache.hits");
  uint64_t hits_before = hits->value();
  int checked = 0;
  for (int k = 0; k < 30; ++k) {
    std::string q = RandomQuery();
    SideBySideHarness::Comparison cold = harness_.Run(q);
    SideBySideHarness::Comparison hot = harness_.Run(q);
    EXPECT_EQ(hot.match, cold.match) << "seed " << GetParam() << ": " << q;
    EXPECT_EQ(hot.both_failed, cold.both_failed) << q;
    if (cold.both_failed) continue;
    EXPECT_EQ(hot.sql, cold.sql)
        << "seed " << GetParam() << " cached SQL diverged for: " << q;
    EXPECT_TRUE(hot.hyperq_result == cold.hyperq_result)
        << "seed " << GetParam() << " cached result diverged for: " << q
        << "\ncold: " << cold.hyperq_result.ToString()
        << "\nhot:  " << hot.hyperq_result.ToString();
    ++checked;
  }
  EXPECT_GE(checked, 15) << "too few queries actually executed";
  EXPECT_GT(hits->value(), hits_before)
      << "the repeat runs never hit the translation cache";
}

/// Same double-run shape over the backend: the hot result must stay
/// byte-identical to the cold one.
TEST_P(SideBySideFuzz, HotKernelResultsMatchColdResults) {
  int checked = 0;
  for (int k = 0; k < 30; ++k) {
    std::string q = RandomQuery();
    SideBySideHarness::Comparison cold = harness_.Run(q);
    SideBySideHarness::Comparison hot = harness_.Run(q);
    EXPECT_EQ(hot.match, cold.match) << "seed " << GetParam() << ": " << q;
    EXPECT_EQ(hot.both_failed, cold.both_failed) << q;
    if (cold.both_failed) continue;
    EXPECT_TRUE(hot.hyperq_result == cold.hyperq_result)
        << "seed " << GetParam() << " hot result diverged for: " << q
        << "\ncold: " << cold.hyperq_result.ToString()
        << "\nhot:  " << hot.hyperq_result.ToString();
    ++checked;
  }
  EXPECT_GE(checked, 15) << "too few queries actually executed";
}

/// The translator-emitted hot corpus against kdb+, run twice: the repeat
/// run must return the cold run's result.
TEST_P(SideBySideFuzz, KernelCoverageOnTranslatedHotCorpus) {
  int executed = 0;
  for (int k = 0; k < 40; ++k) {
    std::string q = RandomHotQuery();
    SideBySideHarness::Comparison cold = harness_.Run(q);
    EXPECT_TRUE(cold.match) << "seed " << GetParam() << " query: " << q
                            << "\nsql: " << cold.sql
                            << "\nkdb err: " << cold.kdb_error
                            << "\nhq err:  " << cold.hyperq_error;
    if (cold.both_failed) continue;
    SideBySideHarness::Comparison hot = harness_.Run(q);
    EXPECT_TRUE(hot.hyperq_result == cold.hyperq_result)
        << "seed " << GetParam() << " hot result diverged for: " << q
        << "\ncold: " << cold.hyperq_result.ToString()
        << "\nhot:  " << hot.hyperq_result.ToString();
    ++executed;
  }
  ASSERT_GE(executed, 25) << "too few queries actually executed";
}

TEST_P(SideBySideFuzz, MixedPipelinesAgree) {
  int checked = 0;
  // Keep the first disagreement whole — query, generated SQL and both
  // results — so a red run tells you what to reproduce without re-running
  // the sweep.
  std::optional<SideBySideHarness::Comparison> first_mismatch;
  for (int k = 0; k < 25; ++k) {
    std::string q = RandomPipeline();
    SideBySideHarness::Comparison c = harness_.Run(q);
    if (!c.match && !first_mismatch) first_mismatch = c;
    if (c.match && !c.both_failed) ++checked;
  }
  if (first_mismatch) {
    ADD_FAILURE() << "seed " << GetParam()
                  << " first mismatching pipeline:\n  query: "
                  << first_mismatch->query
                  << "\n  sql: " << first_mismatch->sql
                  << "\n  kdb:    " << first_mismatch->kdb_result.ToString()
                  << "\n  hyperq: "
                  << first_mismatch->hyperq_result.ToString()
                  << "\n  kdb err: " << first_mismatch->kdb_error
                  << "\n  hq err:  " << first_mismatch->hyperq_error
                  << ShrinkAndArchive(*first_mismatch);
  }
  EXPECT_GE(checked, 15) << "too few pipelines actually executed";
}

TEST_P(SideBySideFuzz, GroupedAndWindowQueriesAgree) {
  int checked = 0;
  // As with the pipeline sweep, keep the first disagreement whole — the
  // query, the SQL it translated to, and both results.
  std::optional<SideBySideHarness::Comparison> first_mismatch;
  for (int k = 0; k < 30; ++k) {
    std::string q = RandomGroupedOrWindowQuery();
    SideBySideHarness::Comparison c = harness_.Run(q);
    if (!c.match && !first_mismatch) first_mismatch = c;
    if (c.match && !c.both_failed) ++checked;
  }
  if (first_mismatch) {
    ADD_FAILURE() << "seed " << GetParam()
                  << " first mismatching grouped/window query:\n  query: "
                  << first_mismatch->query
                  << "\n  sql: " << first_mismatch->sql
                  << "\n  kdb:    " << first_mismatch->kdb_result.ToString()
                  << "\n  hyperq: "
                  << first_mismatch->hyperq_result.ToString()
                  << "\n  kdb err: " << first_mismatch->kdb_error
                  << "\n  hq err:  " << first_mismatch->hyperq_error
                  << ShrinkAndArchive(*first_mismatch);
  }
  EXPECT_GE(checked, 20) << "too few queries actually executed";
}

/// The distributed byte-identity sweep: the full random corpus (single
/// statements, grouped/window shapes and multi-statement pipelines) runs
/// against the scatter-gather coordinator at 1, 2 and 4 shards, and every
/// QIPC-encoded response must equal the single-backend response byte for
/// byte. Decomposable queries exercise the two-phase merge; everything
/// else must fall back transparently — either way the wire bytes may not
/// change.
TEST_P(SideBySideFuzz, ShardedResponsesByteIdenticalAcrossShardCounts) {
  MarketDataOptions opts;
  opts.seed = GetParam();
  opts.symbols = {"AAPL", "GOOG", "IBM", "MSFT"};
  opts.trades_per_symbol = 30;
  opts.quotes_per_symbol = 90;
  MarketData data = GenerateMarketData(opts);

  // Fresh sessions on both sides so materialized-variable counters advance
  // in lockstep when pipelines run.
  SideBySideHarness direct;
  ASSERT_TRUE(direct.LoadTable("trades", data.trades).ok());
  ASSERT_TRUE(direct.LoadTable("quotes", data.quotes).ok());
  std::vector<std::unique_ptr<SideBySideHarness>> sharded;
  for (int n : {1, 2, 4}) {
    sharded.push_back(std::make_unique<SideBySideHarness>(n));
    ASSERT_TRUE(sharded.back()->LoadTable("trades", data.trades).ok());
    ASSERT_TRUE(sharded.back()->LoadTable("quotes", data.quotes).ok());
  }

  auto response_bytes = [](HyperQSession& s,
                           const std::string& q) -> std::string {
    Result<QValue> r = s.Query(q);
    if (!r.ok()) return StrCat("!error"); // shard context in messages is ok
    Result<std::vector<uint8_t>> bytes =
        qipc::EncodeMessage(*r, qipc::MsgType::kResponse);
    if (!bytes.ok()) return StrCat("!encode: ", bytes.status().ToString());
    return std::string(bytes->begin(), bytes->end());
  };

  std::vector<std::string> corpus;
  for (int k = 0; k < 12; ++k) corpus.push_back(RandomQuery());
  for (int k = 0; k < 6; ++k) corpus.push_back(RandomGroupedOrWindowQuery());
  for (int k = 0; k < 6; ++k) corpus.push_back(RandomPipeline());

  Counter* scatters = MetricsRegistry::Global().GetCounter("shard.scatter");
  const uint64_t scatters_before = scatters->value();
  int compared = 0;
  for (const std::string& q : corpus) {
    const std::string want = response_bytes(direct.hyperq(), q);
    for (size_t si = 0; si < sharded.size(); ++si) {
      const int n = si == 0 ? 1 : (si == 1 ? 2 : 4);
      const std::string got = response_bytes(sharded[si]->hyperq(), q);
      if (want == got) continue;
      // First mismatch: shrink against this shard count and archive.
      SideBySideHarness& bad = *sharded[si];
      ShrinkOutcome s = ShrinkQuery(q, [&](const std::string& cand) {
        return response_bytes(direct.hyperq(), cand) !=
               response_bytes(bad.hyperq(), cand);
      });
      SideBySideHarness::Comparison failure;
      failure.query = q;
      failure.hyperq_error =
          StrCat("sharded(", std::to_string(n),
                 ") response bytes diverged from single backend");
      failure.sql = bad.hyperq().last_sql();
      Result<std::string> path = WriteFailureArtifact(
          "tests/artifacts", GetParam(), failure, s.minimized);
      FAIL() << "seed " << GetParam() << " shards=" << n
             << " response bytes diverged\n  query: " << q
             << "\n  minimized (" << s.tokens_before << " -> "
             << s.tokens_after << " tokens): " << s.minimized
             << "\n  single sql:  " << direct.hyperq().last_sql()
             << "\n  sharded sql: " << bad.hyperq().last_sql()
             << "\n  artifact: "
             << (path.ok() ? *path : path.status().ToString());
    }
    if (want.empty() || want[0] != '!') ++compared;
  }
  EXPECT_GE(compared, 12) << "too few queries produced comparable responses";
  // Byte-identity proves nothing if the planner fell back on the whole
  // corpus: some generated queries must actually scatter.
  EXPECT_GT(scatters->value(), scatters_before)
      << "no corpus query took the scatter path";
}

/// A live-ingest rig for the hybrid sweep: a historical prefix bulk-loaded,
/// the remainder published through upd batches, optional flushes — exactly
/// the states a tickerplant-fed server passes through.
struct HybridRig {
  std::unique_ptr<sqldb::Database> db;
  std::unique_ptr<ingest::IngestStore> store;
  std::unique_ptr<HyperQSession> session;
};

HybridRig MakeHybridRig(const MarketData& data, size_t trade_prefix,
                        size_t quote_prefix, bool flush_trades,
                        bool flush_quotes) {
  HybridRig rig;
  rig.db = std::make_unique<sqldb::Database>();
  EXPECT_TRUE(LoadQTable(rig.db.get(), "trades",
                         SliceTable(data.trades, 0, trade_prefix))
                  .ok());
  EXPECT_TRUE(LoadQTable(rig.db.get(), "quotes",
                         SliceTable(data.quotes, 0, quote_prefix))
                  .ok());
  rig.store = std::make_unique<ingest::IngestStore>(rig.db.get());
  EXPECT_TRUE(rig.store->Register("trades").ok());
  EXPECT_TRUE(rig.store->Register("quotes").ok());
  auto publish = [&rig](const std::string& table, const QValue& src,
                        size_t from) {
    size_t rows = src.Table().RowCount();
    size_t mid = from + (rows - from) / 2;
    for (auto [lo, hi] : {std::pair<size_t, size_t>{from, mid},
                          std::pair<size_t, size_t>{mid, rows}}) {
      if (lo == hi) continue;
      Result<size_t> r = rig.store->Upd(table, SliceTable(src, lo, hi));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  };
  publish("trades", data.trades, trade_prefix);
  publish("quotes", data.quotes, quote_prefix);
  if (flush_trades) EXPECT_TRUE(rig.store->Flush("trades").ok());
  if (flush_quotes) EXPECT_TRUE(rig.store->Flush("quotes").ok());
  rig.session = std::make_unique<HyperQSession>(
      std::make_unique<ingest::HybridGateway>(rig.db.get(), rig.store.get()),
      HyperQSession::Options());
  return rig;
}

/// The hybrid byte-identity sweep: the random corpus (single statements,
/// grouped/window shapes and pipelines) runs against a live server whose
/// tables were fed through upd with a randomized historical/tail boundary,
/// with randomized flush points mid-corpus — and every QIPC-encoded
/// response must equal the bulk-loaded single-backend response byte for
/// byte. A mismatch is delta-debugged into a minimal upd/flush/query
/// reproducer: the query is ddmin-shrunk against a fresh rig rebuilt in
/// the failing ingest state, the upd/flush schedule is reduced to the
/// simplest canonical state that still reproduces, and both land in the
/// archived artifact.
TEST_P(SideBySideFuzz, HybridResponsesByteIdenticalAcrossFlushPoints) {
  MarketDataOptions opts;
  opts.seed = GetParam();
  opts.symbols = {"AAPL", "GOOG", "IBM", "MSFT"};
  opts.trades_per_symbol = 30;
  opts.quotes_per_symbol = 90;
  MarketData data = GenerateMarketData(opts);
  size_t nt = data.trades.Table().RowCount();
  size_t nq = data.quotes.Table().RowCount();

  // Fresh oracle session so pipeline temp-variable counters advance in
  // lockstep with the live session.
  auto make_oracle = [&data]() {
    auto db = std::make_unique<sqldb::Database>();
    EXPECT_TRUE(LoadQTable(db.get(), "trades", data.trades).ok());
    EXPECT_TRUE(LoadQTable(db.get(), "quotes", data.quotes).ok());
    return db;
  };
  std::unique_ptr<sqldb::Database> oracle_db = make_oracle();
  HyperQSession oracle(oracle_db.get());

  // Prefixes stay strictly short of the full table, and the flush points
  // strictly after the first query, so at least one corpus query is
  // guaranteed to see a non-empty trades tail (the hybrid-path assertion
  // below would otherwise be seed-dependent).
  size_t trade_prefix = rng_.Below(nt);
  size_t quote_prefix = rng_.Below(nq);
  HybridRig rig = MakeHybridRig(data, trade_prefix, quote_prefix,
                                /*flush_trades=*/false,
                                /*flush_quotes=*/false);

  auto response_bytes = [](HyperQSession& s,
                           const std::string& q) -> std::string {
    Result<QValue> r = s.Query(q);
    if (!r.ok()) return StrCat("!error");
    Result<std::vector<uint8_t>> bytes =
        qipc::EncodeMessage(*r, qipc::MsgType::kResponse);
    if (!bytes.ok()) return StrCat("!encode: ", bytes.status().ToString());
    return std::string(bytes->begin(), bytes->end());
  };

  std::vector<std::string> corpus;
  for (int k = 0; k < 10; ++k) corpus.push_back(RandomQuery());
  for (int k = 0; k < 5; ++k) corpus.push_back(RandomGroupedOrWindowQuery());
  for (int k = 0; k < 5; ++k) corpus.push_back(RandomPipeline());

  // Randomized flush points: each table's tail migrates into the
  // historical part at an arbitrary moment mid-corpus (pipelines add
  // implicit flush points of their own via eager materialization).
  size_t flush_trades_at = 1 + rng_.Below(corpus.size() - 1);
  size_t flush_quotes_at = 1 + rng_.Below(corpus.size() - 1);

  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t hybrid_before = reg.GetCounter("ingest.hybrid_split")->value() +
                           reg.GetCounter("ingest.hybrid_merged")->value();
  bool flushed_trades = false, flushed_quotes = false;
  int compared = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (i == flush_trades_at) {
      ASSERT_TRUE(rig.store->Flush("trades").ok());
      flushed_trades = true;
    }
    if (i == flush_quotes_at) {
      ASSERT_TRUE(rig.store->Flush("quotes").ok());
      flushed_quotes = true;
    }
    const std::string& q = corpus[i];
    const std::string want = response_bytes(oracle, q);
    const std::string got = response_bytes(*rig.session, q);
    if (want == got) {
      if (want.empty() || want[0] != '!') ++compared;
      continue;
    }
    // Mismatch: rebuild the exact ingest state fresh for a deterministic
    // shrink predicate (fresh sessions per candidate keep pipeline temp
    // counters in lockstep), ddmin the query, then reduce the schedule to
    // the simplest canonical state that still reproduces.
    auto fails_in_state = [&](const std::string& cand, size_t tp, size_t qp,
                              bool ft, bool fq) {
      std::unique_ptr<sqldb::Database> odb = make_oracle();
      HyperQSession o(odb.get());
      HybridRig r = MakeHybridRig(data, tp, qp, ft, fq);
      return response_bytes(o, cand) != response_bytes(*r.session, cand);
    };
    ShrinkOutcome s = ShrinkQuery(q, [&](const std::string& cand) {
      return fails_in_state(cand, trade_prefix, quote_prefix, flushed_trades,
                            flushed_quotes);
    });
    std::string states;
    if (fails_in_state(s.minimized, 0, 0, false, false)) {
      states += " tail-all";
    }
    if (fails_in_state(s.minimized, 0, 0, true, true)) {
      states += " flushed-all";
    }
    if (fails_in_state(s.minimized, nt / 2, nq / 2, false, false)) {
      states += " split";
    }
    SideBySideHarness::Comparison failure;
    failure.query = q;
    failure.sql = rig.session->last_sql();
    failure.kdb_error = StrCat(
        "upd/flush schedule: trades prefix=", std::to_string(trade_prefix),
        " quotes prefix=", std::to_string(quote_prefix),
        " flushed_trades=", flushed_trades ? "1" : "0",
        " flushed_quotes=", flushed_quotes ? "1" : "0");
    failure.hyperq_error = StrCat(
        "hybrid response bytes diverged from bulk load; minimal repro "
        "states:",
        states.empty() ? " exact schedule only" : states);
    Result<std::string> path = WriteFailureArtifact(
        "tests/artifacts", GetParam(), failure, s.minimized);
    FAIL() << "seed " << GetParam()
           << " hybrid response bytes diverged\n  query: " << q
           << "\n  minimized (" << s.tokens_before << " -> "
           << s.tokens_after << " tokens): " << s.minimized
           << "\n  " << failure.kdb_error
           << "\n  minimal repro states:"
           << (states.empty() ? " exact schedule only" : states)
           << "\n  oracle sql: " << oracle.last_sql()
           << "\n  hybrid sql: " << rig.session->last_sql()
           << "\n  artifact: "
           << (path.ok() ? *path : path.status().ToString());
  }
  EXPECT_GE(compared, 12) << "too few queries produced comparable responses";
  // Byte-identity proves nothing if every query saw an already-drained
  // tail: some corpus queries must actually take a hybrid path.
  EXPECT_GT(reg.GetCounter("ingest.hybrid_split")->value() +
                reg.GetCounter("ingest.hybrid_merged")->value(),
            hybrid_before)
      << "no corpus query took a hybrid (split or merged) path";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SideBySideFuzz,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

}  // namespace
}  // namespace testing
}  // namespace hyperq
