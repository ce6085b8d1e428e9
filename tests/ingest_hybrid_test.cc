// Real-time ingest + hybrid live/historical query battery (docs/INGEST.md):
// a server whose tables are part historical, part in-memory ingest tail must
// answer every query class byte-identically (same QIPC bytes) to an oracle
// server bulk-loaded with the same final table — across tail-all /
// flushed-all / split states, concurrent readers, as-of joins spanning the
// flush boundary, armed ingest fault sites, and watermark-triggered flushes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "core/endpoint.h"
#include "core/hyperq.h"
#include "ingest/hybrid_gateway.h"
#include "ingest/ingest.h"
#include "protocol/qipc/qipc.h"
#include "qval/qvalue.h"
#include "testing/fixtures.h"
#include "testing/market_data.h"

namespace hyperq {
namespace testing {
namespace {

int64_t CounterValue(const char* name) {
  return static_cast<int64_t>(
      MetricsRegistry::Global().GetCounter(name)->value());
}

/// A live-backed server: one historical database + one shared ingest store,
/// queried through per-"connection" HybridGateway sessions.
struct LiveFixture {
  std::unique_ptr<sqldb::Database> db;
  std::unique_ptr<ingest::IngestStore> store;
  std::unique_ptr<HyperQSession> session;

  std::unique_ptr<HyperQSession> NewSession() {
    return std::make_unique<HyperQSession>(
        std::make_unique<ingest::HybridGateway>(db.get(), store.get()),
        HyperQSession::Options());
  }
};

/// Loads row prefixes of trades/quotes as the historical part and registers
/// both tables live; the remainder is published with Upd by the caller.
LiveFixture MakeLive(const MarketData& data, size_t trade_prefix,
                     size_t quote_prefix,
                     ingest::IngestOptions options = {}) {
  LiveFixture f;
  f.db = std::make_unique<sqldb::Database>();
  EXPECT_TRUE(
      LoadQTable(f.db.get(), "trades", SliceTable(data.trades, 0, trade_prefix))
          .ok());
  EXPECT_TRUE(
      LoadQTable(f.db.get(), "quotes", SliceTable(data.quotes, 0, quote_prefix))
          .ok());
  f.store = std::make_unique<ingest::IngestStore>(f.db.get(), options);
  EXPECT_TRUE(f.store->Register("trades").ok());
  EXPECT_TRUE(f.store->Register("quotes").ok());
  f.session = f.NewSession();
  return f;
}

/// Publishes rows [b, e) of `table_value` in `batches` upd batches.
void Publish(ingest::IngestStore* store, const std::string& table,
             const QValue& table_value, size_t b, size_t e, int batches) {
  size_t n = e - b;
  for (int i = 0; i < batches; ++i) {
    size_t lo = b + n * i / batches;
    size_t hi = b + n * (i + 1) / batches;
    if (lo == hi) continue;
    Result<size_t> r = store->Upd(table, SliceTable(table_value, lo, hi));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(hi - lo, *r);
  }
}

/// Encodes a query's response exactly as the QIPC endpoint would; errors
/// fold into a distinguishable prefix so error agreement is byte agreement.
std::string ResponseBytes(HyperQSession& session, const std::string& q) {
  Result<QValue> r = session.Query(q);
  if (!r.ok()) return "!" + r.status().ToString();
  Result<std::vector<uint8_t>> bytes =
      qipc::EncodeMessage(*r, qipc::MsgType::kResponse);
  if (!bytes.ok()) return "!" + bytes.status().ToString();
  return std::string(bytes->begin(), bytes->end());
}

/// Every hybrid-relevant query class: ordered scans (split kOrdered),
/// decomposable aggregates (split kTwoPhase), grouped/ordered/paged forms,
/// and as-of joins probing both sides of the flush boundary (merged path).
std::vector<std::string> HybridCorpus() {
  return {
      "select Symbol, Price from trades",
      "select Symbol, Price, Size from trades where Price > 100.0",
      "select Symbol, v: 2*Size from trades where Symbol=`AAPL",
      "5#`Price xasc trades",
      "12#`Size xdesc trades",
      "select[7;>Price] from trades",
      "select s: sum Size, c: count Size by Symbol from trades",
      "select lo: min Size, hi: max Size, a: avg Size by Symbol from trades",
      "exec sum Size from trades",
      "exec avg Size from trades",
      "exec max Size from trades",
      "exec count Time from quotes",
      "select c: count Time by Symbol from quotes",
      "aj[`Symbol`Time; trades; quotes]",
      "aj[`Symbol`Time; select Symbol, Time, Price from trades; "
      "select Symbol, Time, Bid, Ask from quotes]",
  };
}

class IngestHybridTest : public ::testing::Test {
 protected:
  /// Compares the live session's response bytes for the whole corpus
  /// against the oracle's, then again from `threads` concurrent sessions
  /// sharing the same store (the 1+4 reader sweep).
  static void ExpectCorpusByteIdentical(HyperQSession& oracle,
                                        LiveFixture& live,
                                        const std::string& state,
                                        int threads = 4) {
    std::vector<std::string> corpus = HybridCorpus();
    std::vector<std::string> want;
    want.reserve(corpus.size());
    for (const std::string& q : corpus) {
      want.push_back(ResponseBytes(oracle, q));
      std::string got = ResponseBytes(*live.session, q);
      EXPECT_EQ(want.back(), got) << state << " query: " << q;
    }
    std::vector<std::thread> readers;
    std::vector<int> mismatches(threads, 0);
    for (int t = 0; t < threads; ++t) {
      readers.emplace_back([&, t] {
        std::unique_ptr<HyperQSession> session = live.NewSession();
        for (size_t i = 0; i < corpus.size(); ++i) {
          if (ResponseBytes(*session, corpus[i]) != want[i]) ++mismatches[t];
        }
      });
    }
    for (std::thread& t : readers) t.join();
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(0, mismatches[t]) << state << " reader thread " << t;
    }
  }
};

TEST_F(IngestHybridTest, TailAllByteIdentical) {
  MarketData data = FixtureMarketData();
  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());
  size_t nt = data.trades.Table().RowCount();
  size_t nq = data.quotes.Table().RowCount();

  // Nothing historical: every row arrives through upd and stays in the tail.
  LiveFixture live = MakeLive(data, 0, 0);
  Publish(live.store.get(), "trades", data.trades, 0, nt, 4);
  Publish(live.store.get(), "quotes", data.quotes, 0, nq, 4);
  ASSERT_GT(live.store->Stats("trades").tail_rows, 0u);
  ExpectCorpusByteIdentical(*oracle->session, live, "tail-all");
}

TEST_F(IngestHybridTest, FlushedAllByteIdentical) {
  MarketData data = FixtureMarketData();
  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());
  size_t nt = data.trades.Table().RowCount();
  size_t nq = data.quotes.Table().RowCount();

  // Everything ingested, then flushed: the tail is empty and the
  // historical table must equal a bulk load (ordcol continuation).
  LiveFixture live = MakeLive(data, nt * 2 / 5, nq * 2 / 5);
  Publish(live.store.get(), "trades", data.trades, nt * 2 / 5, nt, 3);
  Publish(live.store.get(), "quotes", data.quotes, nq * 2 / 5, nq, 3);
  ASSERT_TRUE(live.store->FlushAll().ok());
  ASSERT_EQ(0u, live.store->Stats("trades").tail_rows);
  ExpectCorpusByteIdentical(*oracle->session, live, "flushed-all");
}

TEST_F(IngestHybridTest, SplitStateByteIdentical) {
  MarketData data = FixtureMarketData();
  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());
  size_t nt = data.trades.Table().RowCount();
  size_t nq = data.quotes.Table().RowCount();

  // The general state: a bulk-loaded prefix, a flushed middle (the flush
  // boundary falls inside the ingested range), and a live tail — as-of
  // joins must probe both sides of that boundary.
  LiveFixture live = MakeLive(data, nt / 2, nq / 2);
  Publish(live.store.get(), "trades", data.trades, nt / 2, nt * 3 / 4, 2);
  Publish(live.store.get(), "quotes", data.quotes, nq / 2, nq * 3 / 4, 2);
  ASSERT_TRUE(live.store->FlushAll().ok());
  Publish(live.store.get(), "trades", data.trades, nt * 3 / 4, nt, 2);
  Publish(live.store.get(), "quotes", data.quotes, nq * 3 / 4, nq, 2);
  ASSERT_GT(live.store->Stats("trades").tail_rows, 0u);
  ExpectCorpusByteIdentical(*oracle->session, live, "split");
}

TEST_F(IngestHybridTest, SplitAndMergedPathsActuallyTaken) {
  MarketData data = FixtureMarketData();
  size_t nt = data.trades.Table().RowCount();
  LiveFixture live = MakeLive(data, nt / 2, 0);
  Publish(live.store.get(), "trades", data.trades, nt / 2, nt, 2);
  Publish(live.store.get(), "quotes", data.quotes, 0,
          data.quotes.Table().RowCount(), 2);

  int64_t split0 = CounterValue("ingest.hybrid_split");
  ASSERT_TRUE(live.session->Query("exec sum Size from trades").ok());
  EXPECT_GT(CounterValue("ingest.hybrid_split"), split0)
      << "decomposable aggregate over a tailed table must take the split "
         "path";

  int64_t split1 = CounterValue("ingest.hybrid_split");
  ASSERT_TRUE(live.session->Query("select Symbol, Price from trades").ok());
  EXPECT_GT(CounterValue("ingest.hybrid_split"), split1)
      << "ordered scan over a tailed table must take the split path";

  int64_t merged0 = CounterValue("ingest.hybrid_merged");
  ASSERT_TRUE(
      live.session->Query("aj[`Symbol`Time; trades; quotes]").ok());
  EXPECT_GT(CounterValue("ingest.hybrid_merged"), merged0)
      << "an as-of join across the boundary must take the merged fallback";
}

TEST_F(IngestHybridTest, MergedPathReadsRunOnKernels) {
  // The merged path shadows a historical+tail snapshot into the session as
  // a temp table, which the executor scans in place. Every translation
  // carries its hybrid plan, cached or cold, so the symbol-pinned selects
  // split; the grouped float sum and the float avg cannot split and take
  // the merged path.
  MarketData data = FixtureMarketData();
  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());
  size_t nt = data.trades.Table().RowCount();
  LiveFixture live = MakeLive(data, nt / 2, data.quotes.Table().RowCount());
  Publish(live.store.get(), "trades", data.trades, nt / 2, nt, 3);
  ASSERT_GT(live.store->Stats("trades").tail_rows, 0u);

  struct Template {
    const char* text;
    bool splits;
  };
  const Template templates[] = {
      {"select from trades where Symbol=`%s", true},
      {"select Symbol, Price from trades where Symbol=`%s", true},
      // Grouped float sum (not two-phase decomposable).
      {"select s: sum Price, c: count Price by Symbol from trades "
       "where Symbol<>`%s",
       false},
      {"exec avg Price from trades where Symbol=`%s", false},
  };
  const char* const syms[] = {"AAPL", "MSFT", "IBM", "GOOG"};
  for (const Template& tmpl : templates) {
    for (const char* sym : syms) {
      char q[256];
      std::snprintf(q, sizeof(q), tmpl.text, sym);
      SCOPED_TRACE(q);
      // The oracle shares the process-wide counters; run it first.
      std::string want = ResponseBytes(*oracle->session, q);
      int64_t split0 = CounterValue("ingest.hybrid_split");
      int64_t merged0 = CounterValue("ingest.hybrid_merged");
      EXPECT_EQ(want, ResponseBytes(*live.session, q));
      if (tmpl.splits) {
        EXPECT_EQ(CounterValue("ingest.hybrid_split"), split0 + 1);
        continue;
      }
      EXPECT_EQ(CounterValue("ingest.hybrid_merged"), merged0 + 1);
    }
  }
}

TEST_F(IngestHybridTest, FlushOfOneTableLeavesOtherTablesKernelsHot) {
  // A flush into trades leaves the reads of quotes on the plain path,
  // with the same answer before and after it.
  MarketData data = FixtureMarketData();
  size_t nq = data.quotes.Table().RowCount();
  LiveFixture live = MakeLive(data, 0, nq);
  const std::string hot = "select Symbol, Bid from quotes where Bid > 0.0";

  const std::string before = ResponseBytes(*live.session, hot);
  ASSERT_EQ(before, ResponseBytes(*live.session, hot));

  // Ingest + flush into the *other* table.
  Publish(live.store.get(), "trades", data.trades, 0,
          data.trades.Table().RowCount(), 2);
  ASSERT_TRUE(live.store->Flush("trades").ok());

  int64_t split0 = CounterValue("ingest.hybrid_split");
  int64_t merged0 = CounterValue("ingest.hybrid_merged");
  EXPECT_EQ(before, ResponseBytes(*live.session, hot));
  EXPECT_EQ(CounterValue("ingest.hybrid_split"), split0);
  EXPECT_EQ(CounterValue("ingest.hybrid_merged"), merged0);
}

TEST_F(IngestHybridTest, SplitPartialsRunOnKernelsAcrossTailAppends) {
  // Each split partial reads its part of the snapshot: the tail partial
  // the tail shadowed into the session under the live table's name, the
  // historical one the historical part (the catalog's own table). The
  // merge reads the two partial results, a session temp table of its own.
  // After a tail append the answer is still the bulk-loaded table's.
  MarketData data = FixtureMarketData();
  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());
  size_t nt = data.trades.Table().RowCount();
  LiveFixture live = MakeLive(data, nt / 2, 0);
  Publish(live.store.get(), "trades", data.trades, nt / 2, nt * 3 / 4, 1);

  const std::string q = "exec sum Size from trades";
  ASSERT_TRUE(live.session->Query(q).ok());  // cold translation
  ASSERT_TRUE(live.session->Query(q).ok());  // exact-tier hit
  Publish(live.store.get(), "trades", data.trades, nt * 3 / 4, nt, 1);

  // The oracle shares the process-wide counters; run it first.
  std::string want = ResponseBytes(*oracle->session, q);
  int64_t split0 = CounterValue("ingest.hybrid_split");
  EXPECT_EQ(want, ResponseBytes(*live.session, q));
  EXPECT_EQ(CounterValue("ingest.hybrid_split"), split0 + 1);
}

TEST_F(IngestHybridTest, SplitTailWithOtherStorageRunsOnTheKernel) {
  // An all-NULL historical column loads with empty storage while the tail
  // holds typed cells. Each partial reads its own storage, and the answer
  // is the bulk-loaded table's.
  const double kNull = std::nan("");
  QValue table = QValue::MakeTableUnchecked(
      {"Symbol", "Size", "Px"},
      {QValue::Syms({"a", "b", "a", "c", "b", "a", "c", "a"}),
       QValue::IntList(QType::kLong, {5, 7, 11, 13, 17, 19, 23, 29}),
       QValue::FloatList(QType::kFloat, {kNull, kNull, kNull, kNull, 1.5,
                                         2.5, kNull, 4.5})});
  sqldb::Database oracle_db;
  ASSERT_TRUE(LoadQTable(&oracle_db, "px", table).ok());
  HyperQSession oracle(&oracle_db);
  LiveFixture live;
  live.db = std::make_unique<sqldb::Database>();
  ASSERT_TRUE(LoadQTable(live.db.get(), "px", SliceTable(table, 0, 4)).ok());
  live.store = std::make_unique<ingest::IngestStore>(live.db.get());
  ASSERT_TRUE(live.store->Register("px").ok());
  live.session = live.NewSession();
  Publish(live.store.get(), "px", table, 4, 8, 1);

  const std::string q = "exec sum Size from px";
  ASSERT_TRUE(live.session->Query(q).ok());  // cold translation
  std::string want = ResponseBytes(oracle, q);
  int64_t split0 = CounterValue("ingest.hybrid_split");
  EXPECT_EQ(want, ResponseBytes(*live.session, q));
  EXPECT_EQ(CounterValue("ingest.hybrid_split"), split0 + 1);
}

TEST_F(IngestHybridTest, FlushDoesNotWaitForInFlightSplitRead) {
  // A split read holds only its snapshot, so a flush that lands while both
  // partials are still running returns at once, and the read still
  // answers from the rows it snapshotted. The armed backend SELECT delay
  // parks each partial (and the merge) inside Database::ExecuteStatement
  // for 300 ms.
  MarketData data = FixtureMarketData();
  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());
  size_t nt = data.trades.Table().RowCount();
  LiveFixture live = MakeLive(data, nt / 2, 0);
  Publish(live.store.get(), "trades", data.trades, nt / 2, nt, 2);

  const std::string q = "exec sum Size from trades";
  const std::string want = ResponseBytes(*oracle->session, q);
  ASSERT_TRUE(live.session->Query(q).ok());  // translate
  ASSERT_TRUE(FaultInjector::Global().Arm("backend.select=delay:300").ok());

  using Clock = std::chrono::steady_clock;
  int64_t split0 = CounterValue("ingest.hybrid_split");
  std::atomic<bool> read_done{false};
  std::string got;
  std::thread reader([&] {
    got = ResponseBytes(*live.session, q);
    read_done = true;
  });
  auto select_fires = [] {
    for (const FaultInjector::SiteStats& s : FaultInjector::Global().Stats()) {
      if (s.site == "backend.select") return s.fires;
    }
    return uint64_t{0};
  };
  // Flush once the read is parked in its first partial. A read that never
  // reaches the site fails the test in seconds instead of hanging it.
  const Clock::time_point wait_end = Clock::now() + std::chrono::seconds(5);
  while (select_fires() == 0 && Clock::now() < wait_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (select_fires() == 0) {
    FaultInjector::Global().Clear();
    reader.join();
    FAIL() << "the split read never reached the backend SELECT site";
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Clock::time_point t0 = Clock::now();
  Status flushed = live.store->Flush("trades");
  const int64_t flush_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                               Clock::now() - t0)
                               .count();
  const bool read_done_at_flush = read_done;
  reader.join();
  FaultInjector::Global().Clear();

  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_FALSE(read_done_at_flush) << "the flush waited for the read";
  EXPECT_LT(flush_ms, 200) << "the flush waited for the read";
  EXPECT_EQ(0u, live.store->Stats("trades").tail_rows);
  EXPECT_EQ(CounterValue("ingest.hybrid_split"), split0 + 1);
  EXPECT_EQ(want, got);
}

TEST_F(IngestHybridTest, LiveTablePlansAsUnkeyedTwoPartShard) {
  // The live gateway answers ShardInfo with a partition column no query
  // can name, so the shared planner yields only the partition-agnostic
  // modes: never kAligned (a symbol's rows straddle the flush boundary)
  // and never a route.
  MarketData data = FixtureMarketData();
  LiveFixture live = MakeLive(data, 10, 10);
  struct Case {
    const char* q;
    ShardMode mode;
  };
  const Case kCases[] = {
      {"select Symbol, Price from trades", ShardMode::kOrdered},
      {"5#`Price xasc trades", ShardMode::kOrdered},
      {"exec sum Size from trades", ShardMode::kTwoPhase},
      {"exec avg Price from trades", ShardMode::kNone},
      {"select s: sum Price by Symbol from trades", ShardMode::kNone},
      {"select s: sum Size, c: count Size by Symbol from trades",
       ShardMode::kTwoPhase},
      {"select Symbol, Price from trades where Symbol=`AAPL",
       ShardMode::kOrdered},
      {"exec sum Size from trades where Symbol=`AAPL", ShardMode::kTwoPhase},
  };
  for (const Case& c : kCases) {
    Result<Translation> t = live.session->Translate(c.q);
    ASSERT_TRUE(t.ok()) << c.q << ": " << t.status().ToString();
    EXPECT_EQ(ShardModeName(t->shard.mode), ShardModeName(c.mode)) << c.q;
    EXPECT_EQ(t->shard.table, c.mode == ShardMode::kNone ? "" : "trades")
        << c.q;
    EXPECT_FALSE(t->shard.routed) << c.q;
  }
}

TEST_F(IngestHybridTest, UpdValidationIsAllOrNothing) {
  MarketData data = FixtureMarketData();
  LiveFixture live = MakeLive(data, 10, 10);
  ingest::IngestStore::TableStats before = live.store->Stats("trades");

  // Ragged columns: Date/Symbol rows disagree.
  QValue bad = QValue::MakeTableUnchecked(
      {"Date", "Symbol", "Time", "Price", "Size"},
      {QValue::IntList(QType::kDate, {6021, 6021}),
       QValue::Syms({"AAPL"}),
       QValue::IntList(QType::kTime, {1, 2}),
       QValue::FloatList(QType::kFloat, {1.0, 2.0}),
       QValue::IntList(QType::kLong, {1, 2})});
  EXPECT_FALSE(live.store->Upd("trades", bad).ok());

  // Type mismatch: Price as longs.
  QValue wrong_type = QValue::MakeTableUnchecked(
      {"Date", "Symbol", "Time", "Price", "Size"},
      {QValue::IntList(QType::kDate, {6021}), QValue::Syms({"AAPL"}),
       QValue::IntList(QType::kTime, {1}),
       QValue::IntList(QType::kLong, {100}),
       QValue::IntList(QType::kLong, {1})});
  EXPECT_FALSE(live.store->Upd("trades", wrong_type).ok());

  // Missing column.
  QValue missing = QValue::MakeTableUnchecked(
      {"Date", "Symbol"},
      {QValue::IntList(QType::kDate, {6021}), QValue::Syms({"AAPL"})});
  EXPECT_FALSE(live.store->Upd("trades", missing).ok());

  // Nothing was applied: counters and tail untouched.
  ingest::IngestStore::TableStats after = live.store->Stats("trades");
  EXPECT_EQ(before.rows_ingested, after.rows_ingested);
  EXPECT_EQ(before.batches, after.batches);
  EXPECT_EQ(before.tail_rows, after.tail_rows);
}

TEST_F(IngestHybridTest, PositionalColumnListUpdMatchesTableUpd) {
  MarketData data = FixtureMarketData();
  size_t nt = data.trades.Table().RowCount();
  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());

  LiveFixture live = MakeLive(data, nt / 2, data.quotes.Table().RowCount());
  // Publish the remainder as a bare column list, the classic tickerplant
  // `upd[t; data]` payload (columns positional in schema order).
  QValue rest = SliceTable(data.trades, nt / 2, nt);
  Result<size_t> r =
      live.store->Upd("trades", QValue::Mixed(rest.Table().columns));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(nt - nt / 2, *r);

  const std::string q = "select s: sum Size by Symbol from trades";
  EXPECT_EQ(ResponseBytes(*oracle->session, q),
            ResponseBytes(*live.session, q));
}

TEST_F(IngestHybridTest, WatermarkTriggersInlineFlush) {
  MarketData data = FixtureMarketData();
  size_t nt = data.trades.Table().RowCount();
  ingest::IngestOptions opts;
  opts.tail_max_rows = 40;  // far below one fixture's row count
  LiveFixture live = MakeLive(data, 0, 0, opts);

  Publish(live.store.get(), "trades", data.trades, 0, nt, 8);
  ingest::IngestStore::TableStats s = live.store->Stats("trades");
  EXPECT_EQ(nt, s.rows_ingested);
  EXPECT_GT(s.flushes, 0u) << "crossing the row watermark must flush";
  // The accounting invariant the chaos soak also enforces.
  EXPECT_EQ(s.rows_ingested, s.tail_rows + s.rows_flushed);

  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());
  Publish(live.store.get(), "quotes", data.quotes, 0,
          data.quotes.Table().RowCount(), 8);
  const std::string q = "select Symbol, Price from trades where Price > 100.0";
  EXPECT_EQ(ResponseBytes(*oracle->session, q),
            ResponseBytes(*live.session, q));
}

TEST_F(IngestHybridTest, FaultedUpdAndFlushRecoverTransparently) {
  MarketData data = FixtureMarketData();
  size_t nt = data.trades.Table().RowCount();
  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());
  LiveFixture live = MakeLive(data, nt / 2, data.quotes.Table().RowCount());

  // An injected upd failure is all-or-nothing: the batch is rejected, the
  // tail is untouched, and the publisher's retry lands the same rows.
  ASSERT_TRUE(FaultInjector::Global().Arm("ingest.upd=error,once").ok());
  QValue rest = SliceTable(data.trades, nt / 2, nt);
  EXPECT_FALSE(live.store->Upd("trades", rest).ok());
  EXPECT_EQ(0u, live.store->Stats("trades").tail_rows);
  Result<size_t> retry = live.store->Upd("trades", rest);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();

  // An injected flush failure leaves the tail intact and queryable; the
  // next flush moves exactly the same rows.
  ASSERT_TRUE(FaultInjector::Global().Arm("ingest.flush=error,once").ok());
  EXPECT_FALSE(live.store->Flush("trades").ok());
  EXPECT_EQ(nt - nt / 2, live.store->Stats("trades").tail_rows);
  const std::string q = "select s: sum Size by Symbol from trades";
  EXPECT_EQ(ResponseBytes(*oracle->session, q),
            ResponseBytes(*live.session, q))
      << "a failed flush must not affect hybrid answers";
  ASSERT_TRUE(live.store->Flush("trades").ok());
  EXPECT_EQ(0u, live.store->Stats("trades").tail_rows);
  EXPECT_EQ(ResponseBytes(*oracle->session, q),
            ResponseBytes(*live.session, q));
  FaultInjector::Global().Clear();
}

TEST_F(IngestHybridTest, ExpiredDeadlineCancelsHybridQuery) {
  MarketData data = FixtureMarketData();
  size_t nt = data.trades.Table().RowCount();
  LiveFixture live = MakeLive(data, nt / 2, 0);
  Publish(live.store.get(), "trades", data.trades, nt / 2, nt, 1);

  // The split execution re-publishes the ambient deadline into both
  // partial tasks; an already-expired one cancels at the first morsel (or
  // stage) boundary instead of running the query to completion.
  {
    ScopedDeadline scoped(Deadline::After(0));
    Result<QValue> r = live.session->Query("exec sum Size from trades");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(StatusCode::kTimeout, r.status().code())
        << r.status().ToString();
  }
  // The session is undamaged afterwards.
  EXPECT_TRUE(live.session->Query("exec sum Size from trades").ok());
}

TEST_F(IngestHybridTest, FlushBuiltinAndIngestStatsOverSession) {
  MarketData data = FixtureMarketData();
  size_t nt = data.trades.Table().RowCount();
  LiveFixture live = MakeLive(data, nt / 2, 0);
  Publish(live.store.get(), "trades", data.trades, nt / 2, nt, 2);

  Result<QValue> stats = live.session->Query(".hyperq.ingestStats[]");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->IsTable());
  int tcol = stats->Table().FindColumn("table");
  int tail = stats->Table().FindColumn("tail_rows");
  ASSERT_GE(tcol, 0);
  ASSERT_GE(tail, 0);
  bool saw_trades_tail = false;
  for (size_t r = 0; r < stats->Table().RowCount(); ++r) {
    if (stats->Table().columns[tcol].ElementAt(r).AsSym() == "trades" &&
        stats->Table().columns[tail].ElementAt(r).AsInt() > 0) {
      saw_trades_tail = true;
    }
  }
  EXPECT_TRUE(saw_trades_tail);

  ASSERT_TRUE(live.session->Query(".hyperq.flush[`trades]").ok());
  EXPECT_EQ(0u, live.store->Stats("trades").tail_rows);
  ASSERT_TRUE(live.session->Query(".hyperq.flush[]").ok());
}

TEST_F(IngestHybridTest, UpdOverWireAsyncAndSync) {
  // The endpoint's upd dispatch end to end: a publisher speaking the kdb+
  // tickerplant convention over QIPC (both sync and fire-and-forget async)
  // feeds a live server whose answers stay byte-identical to the oracle.
  MarketData data = FixtureMarketData();
  size_t nt = data.trades.Table().RowCount();
  size_t nq = data.quotes.Table().RowCount();
  Result<BackendFixture> oracle = MakeBackend(data);
  ASSERT_TRUE(oracle.ok());

  LiveFixture live = MakeLive(data, nt / 2, nq);
  HyperQServer::Options options;
  options.gateway_factory = [&live]() -> std::unique_ptr<BackendGateway> {
    return std::make_unique<ingest::HybridGateway>(live.db.get(),
                                                   live.store.get());
  };
  HyperQServer server(live.db.get(), options);
  ASSERT_TRUE(server.Start(0).ok());

  Result<QipcClient> pub = QipcClient::Connect("127.0.0.1", server.port(),
                                               "user", "pass");
  ASSERT_TRUE(pub.ok());
  size_t mid = nt / 2 + (nt - nt / 2) / 2;

  // Sync publish answers with the appended row count.
  QValue sync_msg = QValue::Mixed(
      {QValue::Sym("upd"), QValue::Sym("trades"),
       SliceTable(data.trades, nt / 2, mid)});
  Result<QValue> reply = pub->Call(sync_msg);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(mid - nt / 2), reply->AsInt());

  // Async publish: no reply; observable through a subsequent sync query on
  // the same connection (QIPC responses are ordered per connection).
  QValue async_msg = QValue::Mixed({QValue::Sym("upd"), QValue::Sym("trades"),
                                    SliceTable(data.trades, mid, nt)});
  ASSERT_TRUE(pub->AsyncCall(async_msg).ok());
  Result<QValue> pubseen = pub->Query("exec count Time from trades");
  ASSERT_TRUE(pubseen.ok()) << pubseen.status().ToString();
  ASSERT_EQ(static_cast<int64_t>(nt), pubseen->AsInt());

  Result<QipcClient> reader = QipcClient::Connect("127.0.0.1", server.port(),
                                                  "user", "pass");
  ASSERT_TRUE(reader.ok());
  for (const std::string& q :
       {std::string("select s: sum Size by Symbol from trades"),
        std::string("5#`Price xasc trades"),
        std::string("aj[`Symbol`Time; trades; quotes]")}) {
    Result<QValue> want = oracle->session->Query(q);
    Result<QValue> got = reader->Query(q);
    ASSERT_TRUE(want.ok() && got.ok()) << q;
    EXPECT_TRUE(QValue::Match(*want, *got)) << q;
  }
  pub->Close();
  reader->Close();
  server.Stop();
}

TEST_F(IngestHybridTest, FirstUpdForUnknownTableCreatesIt) {
  MarketData data = FixtureMarketData();
  LiveFixture live = MakeLive(data, 0, 0);
  QValue batch = SliceTable(data.trades, 0, 25);
  Result<size_t> r = live.store->Upd("ticks", batch);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(25u, *r);
  EXPECT_TRUE(live.store->IsLive("ticks"));

  // Queryable immediately, and byte-identical to a bulk load of the same
  // prefix under a different name on an oracle.
  std::unique_ptr<sqldb::Database> odb = std::make_unique<sqldb::Database>();
  ASSERT_TRUE(LoadQTable(odb.get(), "ticks", batch).ok());
  HyperQSession oracle(odb.get());
  const std::string q = "select Symbol, Price from ticks where Price > 0.0";
  EXPECT_EQ(ResponseBytes(oracle, q), ResponseBytes(*live.session, q));
}

}  // namespace
}  // namespace testing
}  // namespace hyperq
