#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "protocol/qipc/qipc.h"
#include "qval/qvalue.h"
#include "testing/fixtures.h"
#include "testing/market_data.h"

namespace hyperq {
namespace testing {
namespace {

/// Property battery for the scatter-gather coordinator: every decomposable
/// query must produce exactly the single-backend answer — same QIPC bytes —
/// at any shard count, across nulls, empty shards, skewed partitions and
/// groups that span shards. The two-phase rewrite (sum -> sum of partial
/// sums, avg -> partial sum/count, min/max of partials) is exercised end to
/// end, not algebraically in isolation.
class ShardExecTest : public ::testing::Test {
 protected:
  /// Encodes a query's response exactly as the QIPC endpoint would; errors
  /// are folded into a distinguishable prefix so error agreement is also
  /// byte agreement.
  static std::string ResponseBytes(HyperQSession& session,
                                   const std::string& q) {
    Result<QValue> r = session.Query(q);
    if (!r.ok()) return "!" + r.status().ToString();
    Result<std::vector<uint8_t>> bytes =
        qipc::EncodeMessage(*r, qipc::MsgType::kResponse);
    if (!bytes.ok()) return "!" + bytes.status().ToString();
    return std::string(bytes->begin(), bytes->end());
  }

  /// Runs `queries` against a single backend and sharded sessions at the
  /// given shard counts over identical `data`; every response must be
  /// byte-identical to the single-backend one.
  static void ExpectByteIdentical(const MarketData& data,
                                  const std::vector<std::string>& queries,
                                  std::vector<int> shard_counts = {1, 2, 4}) {
    Result<BackendFixture> direct = MakeBackend(data);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    for (int n : shard_counts) {
      Result<ShardedBackendFixture> sharded = MakeShardedBackend(n, data);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      for (const std::string& q : queries) {
        std::string want = ResponseBytes(*direct->session, q);
        std::string got = ResponseBytes(*sharded->session, q);
        EXPECT_EQ(want, got)
            << "shards=" << n << " query: " << q
            << "\nsingle sql:  " << direct->session->last_sql()
            << "\nsharded sql: " << sharded->session->last_sql();
      }
    }
  }

  static uint64_t ScatterCount() {
    return MetricsRegistry::Global().GetCounter("shard.scatter")->value();
  }
  static uint64_t FallbackCount() {
    return MetricsRegistry::Global().GetCounter("shard.fallback")->value();
  }
  static uint64_t RoutedCount() {
    return MetricsRegistry::Global().GetCounter("shard.routed")->value();
  }
};

TEST_F(ShardExecTest, TwoPhaseAggregatesByteIdentical) {
  // Grouped by the partition column and by a non-partition bucket (groups
  // span shards), plus scalar forms: the full sum/avg/count/min/max
  // decomposition table.
  ExpectByteIdentical(
      FixtureMarketData(),
      {
          "select s: sum Size, c: count Size, n: count Time by Symbol "
          "from trades",
          "select lo: min Size, hi: max Size, a: avg Size by Symbol "
          "from trades",
          "select s: sum Size, a: avg Size, c: count Size "
          "by bucket: 100 xbar Size from trades",
          "exec sum Size from trades",
          "exec count Time from trades",
          "exec avg Size from trades",
          "exec min Size from trades where Size > 500",
          "exec max Size from trades",
          // q sums no rows to 0, on every shard and in the merge.
          "exec sum Size from trades where Size < 0",
          "select s: sum Size, c: count Size from trades where Symbol=`NOPE",
          // min/max stay exact on float columns too (order-insensitive).
          "select lo: min Price, hi: max Price by Symbol from trades",
      });
}

TEST_F(ShardExecTest, OrderedScansByteIdentical) {
  // The kOrdered path: filter/project chains whose merge is a sort on the
  // preserved global ordcol, with and without explicit sorts and paging.
  ExpectByteIdentical(
      FixtureMarketData(),
      {
          "select Symbol, Price from trades",
          "select Symbol, Price, Size from trades where Price > 100.0",
          "select Symbol, v: 2*Size from trades where Symbol=`AAPL",
          "5#`Price xasc trades",
          "12#`Size xdesc trades",
          "select[7;>Price] from trades",
      });
}

TEST_F(ShardExecTest, NullsInAggregatesByteIdentical) {
  // Nulls must be skipped per shard and per merge exactly like a single
  // backend skips them; an all-null group's avg is null on both sides.
  std::vector<std::string> syms;
  std::vector<int64_t> vals;
  for (int i = 0; i < 60; ++i) {
    syms.push_back(i % 3 == 0 ? "AAA" : (i % 3 == 1 ? "BBB" : "CCC"));
    // Group CCC is entirely null; others ~1/4 null.
    vals.push_back(i % 3 == 2 ? kNullLong
                              : (i % 4 == 0 ? kNullLong : i * 7));
  }
  MarketData data = FixtureMarketData();
  data.trades = QValue::MakeTableUnchecked(
      {"Symbol", "Size"},
      {QValue::Syms(std::move(syms)),
       QValue::IntList(QType::kLong, std::move(vals))});
  ExpectByteIdentical(
      data,
      {
          "select s: sum Size, c: count Size, a: avg Size by Symbol "
          "from trades",
          "select lo: min Size, hi: max Size by Symbol from trades",
          "exec sum Size from trades",
          "exec avg Size from trades",
      });
}

TEST_F(ShardExecTest, EmptyShardsByteIdentical) {
  // A single symbol at 4 shards leaves at least three shards empty: empty
  // partials must vanish in the merge, not poison it.
  MarketDataOptions opts;
  opts.symbols = {"ONLY"};
  opts.trades_per_symbol = 40;
  opts.quotes_per_symbol = 10;
  MarketData data = GenerateMarketData(opts);
  ExpectByteIdentical(
      data,
      {
          "select s: sum Size, a: avg Size, c: count Size by Symbol "
          "from trades",
          "exec min Size from trades",
          "select Symbol, Price from trades where Size > 100",
      });
  // And the degenerate table: zero rows everywhere.
  MarketData empty = FixtureMarketData();
  empty.trades = QValue::MakeTableUnchecked(
      {"Symbol", "Size"},
      {QValue::Syms({}), QValue::IntList(QType::kLong, {})});
  ExpectByteIdentical(
      empty,
      {
          "exec sum Size from trades",
          "exec avg Size from trades",
          "select s: sum Size by Symbol from trades",
      });
}

TEST_F(ShardExecTest, SkewedPartitionsByteIdentical) {
  // 97% of rows on one symbol: one giant shard plus stragglers.
  std::vector<std::string> syms;
  std::vector<int64_t> vals;
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    syms.push_back(i % 33 == 0 ? ("T" + std::to_string(i % 7)) : "WHALE");
    vals.push_back(static_cast<int64_t>(rng.Below(100000)));
  }
  MarketData data = FixtureMarketData();
  data.trades = QValue::MakeTableUnchecked(
      {"Symbol", "Size"},
      {QValue::Syms(std::move(syms)),
       QValue::IntList(QType::kLong, std::move(vals))});
  ExpectByteIdentical(
      data,
      {
          "select s: sum Size, a: avg Size, c: count Size by Symbol "
          "from trades",
          "exec sum Size from trades",
          "select Symbol, Size from trades where Size > 90000",
      });
}

TEST_F(ShardExecTest, ScatterPathActuallyTaken) {
  // Guard against vacuous byte-identity: if the planner silently fell back
  // on every query above, the comparisons would still pass. Decomposable
  // queries must take the scatter path; non-decomposable ones must fall
  // back — and still answer correctly.
  MarketData data = FixtureMarketData();
  Result<ShardedBackendFixture> sharded = MakeShardedBackend(4, data);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  uint64_t scatter0 = ScatterCount();
  ASSERT_TRUE(sharded->session
                  ->Query("select s: sum Size by Symbol from trades")
                  .ok());
  EXPECT_GT(ScatterCount(), scatter0)
      << "grouped aggregate did not scatter";

  scatter0 = ScatterCount();
  ASSERT_TRUE(
      sharded->session->Query("select Symbol, Price from trades").ok());
  EXPECT_GT(ScatterCount(), scatter0) << "ordered scan did not scatter";

  uint64_t fallback0 = FallbackCount();
  scatter0 = ScatterCount();
  ASSERT_TRUE(sharded->session
                  ->Query("aj[`Symbol`Time; select Symbol, Time, Price from "
                          "trades; select Symbol, Time, Bid from quotes]")
                  .ok());
  EXPECT_GT(FallbackCount(), fallback0)
      << "as-of join should fall back to the full backend";
  EXPECT_EQ(ScatterCount(), scatter0);
}

TEST_F(ShardExecTest, RoutedSymbolFiltersByteIdentical) {
  // Partition routing: a filter pinning the partition column to one symbol
  // scatters to the owning shard only. Every rewrite mode under routing,
  // plus a symbol that exists on no shard, plus the constant on either
  // side of the `=`, plus routing inside a conjunction.
  ExpectByteIdentical(
      FixtureMarketData(),
      {
          "select s: sum Size, c: count Size by Symbol from trades "
          "where Symbol=`GOOG",
          "select s: sum Size, a: avg Size by bucket: 100 xbar Size "
          "from trades where Symbol=`IBM",
          "exec sum Size from trades where Symbol=`AAPL",
          "exec count Time from trades where Symbol=`MSFT",
          "select Symbol, Price from trades where Symbol=`ORCL",
          "select Price from trades where Symbol=`ZZZZ",
          "exec sum Size from trades where Symbol=`ZZZZ",
          "select Price from trades where `GOOG=Symbol",
          "select Price, Size from trades where Symbol=`GOOG, Size>100",
      });
}

TEST_F(ShardExecTest, RoutingPrunesOnlySymbolPinnedQueries) {
  MarketData data = FixtureMarketData();
  Result<ShardedBackendFixture> sharded = MakeShardedBackend(4, data);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  uint64_t routed0 = RoutedCount();
  ASSERT_TRUE(sharded->session
                  ->Query("select s: sum Size by Symbol from trades "
                          "where Symbol=`GOOG")
                  .ok());
  EXPECT_GT(RoutedCount(), routed0) << "symbol-pinned query was not routed";

  // A non-partition filter scatters to every shard, never routes.
  routed0 = RoutedCount();
  uint64_t scatter0 = ScatterCount();
  ASSERT_TRUE(sharded->session
                  ->Query("select s: sum Size by Symbol from trades "
                          "where Size>100")
                  .ok());
  EXPECT_GT(ScatterCount(), scatter0);
  EXPECT_EQ(RoutedCount(), routed0)
      << "non-partition filter must not route";
}

TEST_F(ShardExecTest, PartitioningCoversAllRowsOnce) {
  // The shards partition the fallback exactly: row counts sum to the
  // original and every shard holds only its hash bucket.
  MarketData data = FixtureMarketData();
  Result<ShardedBackendFixture> sharded = MakeShardedBackend(4, data);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  size_t total = 0;
  int populated = 0;
  for (int i = 0; i < 4; ++i) {
    size_t rows = sharded->backend->ShardRowCount("trades", i);
    total += rows;
    if (rows > 0) ++populated;
  }
  EXPECT_EQ(total, data.trades.Table().columns[0].Count());
  // Five symbols across four shards: the fixture must actually spread.
  EXPECT_GE(populated, 2);
}

}  // namespace
}  // namespace testing
}  // namespace hyperq
