#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "core/endpoint.h"
#include "core/loader.h"
#include "ingest/hybrid_gateway.h"
#include "ingest/ingest.h"
#include "shard/sharded_backend.h"
#include "testing/market_data.h"

namespace hyperq {
namespace {

/// Chaos/soak battery: many concurrent sessions hammer a server whose
/// fault sites fire with small, seeded probabilities, for a bounded
/// wall-clock window. The server must never crash or hang, every counter
/// must stay monotone, and — the replay half — the same recorded query
/// stream served fault-free must be byte-identical run to run.
///
/// Tunables: HYPERQ_SOAK_MS (default 2000), HYPERQ_SOAK_SEED (default 42).
/// scripts/ci.sh --chaos-smoke runs this with the pinned default seed.

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::atoll(v);
}

/// The reply the server must send for `q`, computed in process: the
/// session's result encoded contiguously, or its error status.
std::vector<uint8_t> ExpectedQipcReply(HyperQSession* session,
                                       const std::string& q) {
  Result<QValue> result = session->Query(q);
  if (!result.ok()) {
    return qipc::EncodeError(result.status().ToString(),
                             qipc::MsgType::kResponse);
  }
  Result<std::vector<uint8_t>> encoded =
      qipc::EncodeMessage(*result, qipc::MsgType::kResponse);
  EXPECT_TRUE(encoded.ok()) << q;
  return encoded.ok() ? std::move(*encoded) : std::vector<uint8_t>();
}

/// Deterministic, stateless query pool: safe to replay in any order on a
/// fresh server and compare raw response bytes.
const std::vector<std::string>& QueryPool() {
  static const std::vector<std::string>* pool =
      new std::vector<std::string>{
          "select sum Price by Symbol from trades",
          "select from trades where Price>100.0",
          "select n: count Bid by Symbol from quotes",
          "exec max Price from trades",
          "select Symbol, v: 2*Price from trades where Size>1000",
          "select lo: min Bid, hi: max Ask by Symbol from quotes",
          "1+1",
      };
  return *pool;
}

class ChaosSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Clear();
    MetricsRegistry::Global().ResetAll();
    testing::MarketDataOptions opts;
    opts.seed = 42;  // table content is pinned; the soak seed varies
    data_ = testing::GenerateMarketData(opts);
    LoadInto(&db_);
  }

  void TearDown() override { FaultInjector::Global().Clear(); }

  void LoadInto(sqldb::Database* db) {
    ASSERT_TRUE(LoadQTable(db, "trades", data_.trades).ok());
    ASSERT_TRUE(LoadQTable(db, "quotes", data_.quotes).ok());
  }

  /// Raw QIPC client: returns the verbatim response frame so replays can
  /// be compared byte for byte.
  struct RawClient {
    TcpConnection conn;

    static Result<RawClient> Open(uint16_t port) {
      HQ_ASSIGN_OR_RETURN(TcpConnection c,
                          TcpConnection::Connect("127.0.0.1", port));
      std::vector<uint8_t> hs = qipc::EncodeHandshake("soak", "pw");
      HQ_RETURN_IF_ERROR(c.WriteAll(hs));
      HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> ack, c.ReadExact(1));
      (void)ack;
      return RawClient{std::move(c)};
    }

    Result<std::vector<uint8_t>> Query(const std::string& q) {
      HQ_ASSIGN_OR_RETURN(
          std::vector<uint8_t> msg,
          qipc::EncodeMessage(QValue::Chars(q), qipc::MsgType::kSync));
      HQ_RETURN_IF_ERROR(conn.WriteAll(msg));
      uint8_t header[8];
      HQ_RETURN_IF_ERROR(conn.ReadExactInto(header, 8));
      HQ_ASSIGN_OR_RETURN(uint32_t len, qipc::PeekMessageLength(header));
      if (len < 9 || len > (256u << 20)) {
        return ProtocolError("implausible response length");
      }
      std::vector<uint8_t> whole(len);
      std::memcpy(whole.data(), header, 8);
      HQ_RETURN_IF_ERROR(conn.ReadExactInto(whole.data() + 8, len - 8));
      return whole;
    }
  };

  /// A fresh 4-way sharded coordinator over the pinned market data.
  std::unique_ptr<shard::ShardedBackend> MakeSharded() {
    auto backend = std::make_unique<shard::ShardedBackend>(4);
    EXPECT_TRUE(backend->LoadQTable("trades", data_.trades).ok());
    EXPECT_TRUE(backend->LoadQTable("quotes", data_.quotes).ok());
    return backend;
  }

  static HyperQServer::Options ShardedOptions(
      shard::ShardedBackend* backend) {
    HyperQServer::Options opts;
    opts.gateway_factory = [backend]() {
      return std::make_unique<shard::ShardedGateway>(backend);
    };
    return opts;
  }

  testing::MarketData data_;
  sqldb::Database db_;
};

TEST_F(ChaosSoakTest, SoakSurvivesSeededFaultsAndReplaysByteIdentical) {
  const int64_t soak_ms = EnvInt("HYPERQ_SOAK_MS", 2000);
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("HYPERQ_SOAK_SEED", 42));

  HyperQServer::Options opts;
  opts.default_deadline_ms = 500;  // deadlines active during the soak
  HyperQServer server(&db_, opts);
  ASSERT_TRUE(server.Start(0).ok());

  // Small-probability faults at every QIPC-path site, deterministic for
  // the seed.
  FaultInjector::Global().Reseed(seed);
  ASSERT_TRUE(FaultInjector::Global()
                  .Arm("net.read=error,p:0.01;"
                       "net.write=error,p:0.01;"
                       "qipc.decode=error,p:0.02;"
                       "qipc.encode=error,p:0.02;"
                       "backend.execute=error,p:0.04;"
                       "pool.task=delay:1,p:0.05")
                  .ok());

  constexpr int kClients = 6;
  const auto stop_at = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(soak_ms);
  std::vector<std::vector<std::string>> recorded(kClients);
  std::vector<int> completed(kClients, 0);
  std::atomic<bool> sampler_stop{false};
  std::atomic<int> monotonicity_violations{0};

  // Counter monotonicity sampler: counters may only grow, faults or not.
  std::thread sampler([&]() {
    std::map<std::string, uint64_t> last;
    while (!sampler_stop.load(std::memory_order_acquire)) {
      for (const MetricsRegistry::Row& row :
           MetricsRegistry::Global().Snapshot()) {
        if (row.kind != "counter") continue;
        auto it = last.find(row.name);
        if (it != last.end() && row.count < it->second) {
          ++monotonicity_violations;
          ADD_FAILURE() << "counter " << row.name << " went backwards: "
                        << it->second << " -> " << row.count;
        }
        last[row.name] = row.count;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::vector<std::thread> clients;
  for (int tid = 0; tid < kClients; ++tid) {
    clients.emplace_back([&, tid]() {
      testing::Rng rng(seed * 1000003 + tid * 7919 + 1);
      std::unique_ptr<QipcClient> client;
      while (std::chrono::steady_clock::now() < stop_at) {
        if (client == nullptr) {
          Result<QipcClient> c = QipcClient::Connect(
              "127.0.0.1", server.port(), "soak", "pw");
          if (!c.ok()) {
            // Handshake lost to an injected fault; back off and retry.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          client = std::make_unique<QipcClient>(std::move(*c));
        }
        // Mostly workload queries, occasionally a stats scrape (excluded
        // from the replay record: its payload is intentionally live).
        static const std::string kScrape = ".hyperq.stats[]";
        bool scrape = rng.Below(10) == 0;
        const std::string& q =
            scrape ? kScrape : QueryPool()[rng.Below(QueryPool().size())];
        if (!scrape) recorded[tid].push_back(q);
        Result<QValue> r = client->Query(q);
        if (r.ok()) {
          ++completed[tid];
        } else {
          // Any failure may have been transport-level; drop the session
          // and reconnect, exactly as a resilient q client would.
          client->Close();
          client = nullptr;
        }
      }
      if (client != nullptr) client->Close();
    });
  }
  for (auto& t : clients) t.join();
  sampler_stop.store(true, std::memory_order_release);
  sampler.join();

  int total_completed = 0;
  for (int tid = 0; tid < kClients; ++tid) total_completed += completed[tid];
  EXPECT_GT(total_completed, 0) << "no query ever completed under chaos";
  EXPECT_EQ(monotonicity_violations.load(), 0);

  // Faults armed during the soak actually fired somewhere.
  EXPECT_GT(MetricsRegistry::Global().GetCounter("fault.fired")->value(),
            0u);

  // The chaos server is still healthy: disarm and serve.
  FaultInjector::Global().Clear();
  {
    Result<QipcClient> c =
        QipcClient::Connect("127.0.0.1", server.port(), "soak", "pw");
    ASSERT_TRUE(c.ok()) << "server unusable after soak";
    EXPECT_TRUE(c->Query(QueryPool()[0]).ok());
    c->Close();
  }
  server.Stop();
  EXPECT_EQ(server.active_connections(), 0);

  // Replay: the recorded (fault-free-deterministic) query stream served
  // by a fresh server over a fresh identical backend must be byte-identical
  // to an in-process oracle — one HyperQSession over another fresh
  // backend, each reply encoded contiguously (errors with EncodeError).
  std::vector<std::string> replay;
  for (int tid = 0; tid < kClients && replay.size() < 200; ++tid) {
    for (const std::string& q : recorded[tid]) {
      replay.push_back(q);
      if (replay.size() >= 200) break;
    }
  }
  ASSERT_FALSE(replay.empty());
  std::vector<std::vector<uint8_t>> expected;
  {
    sqldb::Database fresh;
    LoadInto(&fresh);
    HyperQSession oracle(&fresh);
    for (const std::string& q : replay) {
      expected.push_back(ExpectedQipcReply(&oracle, q));
    }
  }
  sqldb::Database fresh;
  LoadInto(&fresh);
  HyperQServer replay_server(&fresh, HyperQServer::Options());
  ASSERT_TRUE(replay_server.Start(0).ok());
  Result<RawClient> rc = RawClient::Open(replay_server.port());
  ASSERT_TRUE(rc.ok());
  for (size_t i = 0; i < replay.size(); ++i) {
    Result<std::vector<uint8_t>> bytes = rc->Query(replay[i]);
    ASSERT_TRUE(bytes.ok()) << replay[i];
    ASSERT_EQ(*bytes, expected[i])
        << "server diverged from the oracle at query " << i << ": "
        << replay[i];
  }
  rc->conn.Close();
  replay_server.Stop();
}

TEST_F(ChaosSoakTest, ShardedSoakSurvivesAndMixedReplayIsByteIdentical) {
  const int64_t soak_ms = EnvInt("HYPERQ_SOAK_MS", 2000) / 2;
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("HYPERQ_SOAK_SEED", 42)) + 1;

  std::unique_ptr<shard::ShardedBackend> sharded = MakeSharded();
  HyperQServer::Options opts = ShardedOptions(sharded.get());
  opts.default_deadline_ms = 500;
  HyperQServer server(sharded->fallback(), opts);
  ASSERT_TRUE(server.Start(0).ok());

  // The single-backend soak's sites plus the scatter-gather ones: a shard
  // dying mid-scatter and a lost gather are the distributed failure modes
  // the coordinator must absorb without hanging or corrupting a frame.
  FaultInjector::Global().Reseed(seed);
  ASSERT_TRUE(FaultInjector::Global()
                  .Arm("shard.execute=error,p:0.03;"
                       "shard.gather=error,p:0.02;"
                       "backend.execute=error,p:0.02;"
                       "net.write=error,p:0.01;"
                       "qipc.encode=error,p:0.02;"
                       "pool.task=delay:1,p:0.05")
                  .ok());

  constexpr int kClients = 4;
  const auto stop_at = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(soak_ms);
  std::vector<std::vector<std::string>> recorded(kClients);
  std::vector<int> completed(kClients, 0);
  std::vector<std::thread> clients;
  for (int tid = 0; tid < kClients; ++tid) {
    clients.emplace_back([&, tid]() {
      testing::Rng rng(seed * 1000003 + tid * 7919 + 1);
      std::unique_ptr<QipcClient> client;
      while (std::chrono::steady_clock::now() < stop_at) {
        if (client == nullptr) {
          Result<QipcClient> c = QipcClient::Connect(
              "127.0.0.1", server.port(), "soak", "pw");
          if (!c.ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          client = std::make_unique<QipcClient>(std::move(*c));
        }
        const std::string& q = QueryPool()[rng.Below(QueryPool().size())];
        recorded[tid].push_back(q);
        Result<QValue> r = client->Query(q);
        if (r.ok()) {
          ++completed[tid];
        } else {
          client->Close();
          client = nullptr;
        }
      }
      if (client != nullptr) client->Close();
    });
  }
  for (auto& t : clients) t.join();

  int total_completed = 0;
  for (int tid = 0; tid < kClients; ++tid) total_completed += completed[tid];
  EXPECT_GT(total_completed, 0) << "no query ever completed under chaos";
  EXPECT_GT(MetricsRegistry::Global().GetCounter("fault.fired")->value(),
            0u);
  EXPECT_GT(MetricsRegistry::Global().GetCounter("shard.scatter")->value(),
            0u)
      << "soak never exercised the scatter path";

  // The chaos coordinator is still healthy once the faults are gone.
  FaultInjector::Global().Clear();
  {
    Result<QipcClient> c =
        QipcClient::Connect("127.0.0.1", server.port(), "soak", "pw");
    ASSERT_TRUE(c.ok()) << "sharded server unusable after soak";
    EXPECT_TRUE(c->Query(QueryPool()[0]).ok());
    c->Close();
  }
  server.Stop();
  EXPECT_EQ(server.active_connections(), 0);

  // Mixed replay: the recorded stream served fault-free from a fresh
  // sharded server and from a fresh single-backend server must produce
  // byte-identical response frames — scatter-gather is invisible on the
  // wire even after a chaos run.
  std::vector<std::string> replay;
  for (int tid = 0; tid < kClients && replay.size() < 150; ++tid) {
    for (const std::string& q : recorded[tid]) {
      replay.push_back(q);
      if (replay.size() >= 150) break;
    }
  }
  ASSERT_FALSE(replay.empty());
  auto run_replay = [&](bool use_shards,
                        std::vector<std::vector<uint8_t>>* out) {
    sqldb::Database plain;
    std::unique_ptr<shard::ShardedBackend> fresh;
    HyperQServer::Options ropts;
    sqldb::Database* server_db = &plain;
    if (use_shards) {
      fresh = MakeSharded();
      ropts = ShardedOptions(fresh.get());
      server_db = fresh->fallback();
    } else {
      LoadInto(&plain);
    }
    HyperQServer replay_server(server_db, ropts);
    ASSERT_TRUE(replay_server.Start(0).ok());
    Result<RawClient> rc = RawClient::Open(replay_server.port());
    ASSERT_TRUE(rc.ok());
    for (const std::string& q : replay) {
      Result<std::vector<uint8_t>> bytes = rc->Query(q);
      ASSERT_TRUE(bytes.ok()) << q;
      out->push_back(std::move(*bytes));
    }
    rc->conn.Close();
    replay_server.Stop();
  };
  std::vector<std::vector<uint8_t>> via_shards, via_single;
  run_replay(true, &via_shards);
  run_replay(false, &via_single);
  ASSERT_EQ(via_shards.size(), via_single.size());
  for (size_t i = 0; i < via_shards.size(); ++i) {
    ASSERT_EQ(via_shards[i], via_single[i])
        << "sharded replay diverged from single-backend at query " << i
        << ": " << replay[i];
  }
}

TEST_F(ChaosSoakTest, IngestSoakKeepsAccountingAndReplaysByteIdentical) {
  // Live-ingest chaos: publisher clients sustain tickerplant `upd` traffic
  // over QIPC while query clients hammer the same tables, with the
  // ingest fault sites (and the usual QIPC-path ones) armed and the
  // row watermark's inline flushes racing every reader. Afterwards the
  // per-table accounting invariant must hold exactly — every row that was
  // acknowledged is either still in the tail or flushed — and the live
  // server's fault-free answers must be byte-identical to a fresh server
  // bulk-loaded with the live server's own final table contents.
  const int64_t soak_ms = EnvInt("HYPERQ_SOAK_MS", 2000) / 2;
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("HYPERQ_SOAK_SEED", 42)) + 2;

  // The historical part is a prefix of the pinned fixture; publishers feed
  // a disjoint stream generated from another seed, batch-interleaved
  // across publisher threads.
  size_t nt = data_.trades.Table().RowCount();
  size_t nq = data_.quotes.Table().RowCount();
  sqldb::Database live_db;
  ASSERT_TRUE(
      LoadQTable(&live_db, "trades", testing::SliceTable(data_.trades, 0, nt / 2))
          .ok());
  ASSERT_TRUE(
      LoadQTable(&live_db, "quotes", testing::SliceTable(data_.quotes, 0, nq / 2))
          .ok());
  testing::MarketDataOptions feed_opts;
  feed_opts.seed = 43;
  testing::MarketData feed = testing::GenerateMarketData(feed_opts);

  ingest::IngestOptions iopts;
  iopts.tail_max_rows = 300;  // watermark flushes fire during the soak
  ingest::IngestStore store(&live_db, iopts);
  ASSERT_TRUE(store.Register("trades").ok());
  ASSERT_TRUE(store.Register("quotes").ok());

  HyperQServer::Options opts;
  opts.default_deadline_ms = 500;
  opts.gateway_factory = [&live_db, &store]() {
    return std::make_unique<ingest::HybridGateway>(&live_db, &store);
  };
  HyperQServer server(&live_db, opts);
  ASSERT_TRUE(server.Start(0).ok());

  FaultInjector::Global().Reseed(seed);
  ASSERT_TRUE(FaultInjector::Global()
                  .Arm("ingest.upd=error,p:0.05;"
                       "ingest.flush=error,p:0.08;"
                       "backend.execute=error,p:0.03;"
                       "net.write=error,p:0.005;"
                       "pool.task=delay:1,p:0.05")
                  .ok());

  constexpr int kPublishers = 2;
  constexpr int kQueryClients = 4;
  constexpr size_t kBatchRows = 40;
  const auto stop_at = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(soak_ms);
  std::vector<int> published(kPublishers, 0);
  std::vector<int> completed(kQueryClients, 0);

  std::vector<std::thread> workers;
  for (int tid = 0; tid < kPublishers; ++tid) {
    workers.emplace_back([&, tid]() {
      testing::Rng rng(seed * 1000003 + tid * 104729 + 1);
      std::unique_ptr<QipcClient> client;
      // Publisher tid owns every kPublishers'th batch of the feed, split
      // alternately across trades and quotes; batches a fault rejects are
      // simply dropped (the invariant is about acknowledged rows).
      size_t batch = static_cast<size_t>(tid);
      while (std::chrono::steady_clock::now() < stop_at) {
        if (client == nullptr) {
          Result<QipcClient> c = QipcClient::Connect(
              "127.0.0.1", server.port(), "soak", "pw");
          if (!c.ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          client = std::make_unique<QipcClient>(std::move(*c));
        }
        bool to_trades = batch % 2 == 0;
        const QValue& src = to_trades ? feed.trades : feed.quotes;
        size_t rows = src.Table().RowCount();
        size_t lo = (batch * kBatchRows) % rows;
        size_t hi = std::min(lo + kBatchRows, rows);
        QValue msg = QValue::Mixed(
            {QValue::Sym("upd"),
             QValue::Sym(to_trades ? "trades" : "quotes"),
             testing::SliceTable(src, lo, hi)});
        batch += kPublishers;
        if (rng.Below(4) == 0) {
          // Fire-and-forget publish: any upd error is absorbed silently,
          // exactly like a real tickerplant subscriber feed.
          if (!client->AsyncCall(msg).ok()) {
            client->Close();
            client = nullptr;
          }
          continue;
        }
        Result<QValue> r = client->Call(msg);
        if (r.ok()) {
          ++published[tid];
        } else if (r.status().code() != StatusCode::kExecutionError) {
          // A decoded server error ('busy, injected upd fault) keeps the
          // session; anything else is transport-level loss — drop the
          // session and reconnect.
          client->Close();
          client = nullptr;
        }
      }
      if (client != nullptr) client->Close();
    });
  }
  for (int tid = 0; tid < kQueryClients; ++tid) {
    workers.emplace_back([&, tid]() {
      testing::Rng rng(seed * 1000003 + tid * 7919 + 500);
      std::unique_ptr<QipcClient> client;
      while (std::chrono::steady_clock::now() < stop_at) {
        if (client == nullptr) {
          Result<QipcClient> c = QipcClient::Connect(
              "127.0.0.1", server.port(), "soak", "pw");
          if (!c.ok()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          client = std::make_unique<QipcClient>(std::move(*c));
        }
        // Workload queries plus the ingest control surface: stats scrapes
        // and explicit flushes race the publishers' watermark flushes on
        // purpose.
        uint64_t pick = rng.Below(12);
        const std::string q =
            pick == 0   ? ".hyperq.ingestStats[]"
            : pick == 1 ? ".hyperq.flush[]"
                        : QueryPool()[rng.Below(QueryPool().size())];
        Result<QValue> r = client->Query(q);
        if (r.ok()) {
          ++completed[tid];
        } else {
          client->Close();
          client = nullptr;
        }
      }
      if (client != nullptr) client->Close();
    });
  }
  for (auto& t : workers) t.join();

  int total_published = 0, total_completed = 0;
  for (int v : published) total_published += v;
  for (int v : completed) total_completed += v;
  EXPECT_GT(total_published, 0) << "no upd batch ever landed under chaos";
  EXPECT_GT(total_completed, 0) << "no query ever completed under chaos";
  EXPECT_GT(MetricsRegistry::Global().GetCounter("fault.fired")->value(),
            0u);
  EXPECT_GT(MetricsRegistry::Global().GetCounter("ingest.rows")->value(),
            0u);

  // The accounting invariant: every acknowledged row is either still in
  // the tail or flushed — faults, watermark flushes and builtin flushes
  // included.
  FaultInjector::Global().Clear();
  for (const std::string& table : {std::string("trades"), std::string("quotes")}) {
    ingest::IngestStore::TableStats s = store.Stats(table);
    EXPECT_EQ(s.rows_ingested, s.tail_rows + s.rows_flushed)
        << table << " lost or duplicated rows during the soak";
  }

  // Fault-free replay identity: snapshot the live server's final tables
  // over the wire, bulk-load them into a fresh single-backend server, and
  // compare raw response frames for the whole query pool. The live server
  // still has whatever tail the last flush left behind — hybrid answers
  // must be indistinguishable from the bulk load.
  Result<QipcClient> snap =
      QipcClient::Connect("127.0.0.1", server.port(), "soak", "pw");
  ASSERT_TRUE(snap.ok()) << "live server unusable after soak";
  Result<QValue> final_trades = snap->Query("select from trades");
  Result<QValue> final_quotes = snap->Query("select from quotes");
  ASSERT_TRUE(final_trades.ok()) << final_trades.status().ToString();
  ASSERT_TRUE(final_quotes.ok()) << final_quotes.status().ToString();
  snap->Close();

  sqldb::Database oracle_db;
  ASSERT_TRUE(LoadQTable(&oracle_db, "trades", *final_trades).ok());
  ASSERT_TRUE(LoadQTable(&oracle_db, "quotes", *final_quotes).ok());
  HyperQServer oracle_server(&oracle_db, HyperQServer::Options{});
  ASSERT_TRUE(oracle_server.Start(0).ok());

  Result<RawClient> live_rc = RawClient::Open(server.port());
  Result<RawClient> oracle_rc = RawClient::Open(oracle_server.port());
  ASSERT_TRUE(live_rc.ok());
  ASSERT_TRUE(oracle_rc.ok());
  for (const std::string& q : QueryPool()) {
    Result<std::vector<uint8_t>> live_bytes = live_rc->Query(q);
    Result<std::vector<uint8_t>> oracle_bytes = oracle_rc->Query(q);
    ASSERT_TRUE(live_bytes.ok()) << q;
    ASSERT_TRUE(oracle_bytes.ok()) << q;
    ASSERT_EQ(*live_bytes, *oracle_bytes)
        << "post-soak hybrid replay diverged from bulk load on: " << q;
  }
  live_rc->conn.Close();
  oracle_rc->conn.Close();
  oracle_server.Stop();
  server.Stop();
  EXPECT_EQ(server.active_connections(), 0);
}

}  // namespace
}  // namespace hyperq
