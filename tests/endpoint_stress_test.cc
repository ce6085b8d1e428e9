#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/endpoint.h"
#include "core/gateway_wire.h"
#include "kdb/engine.h"

namespace hyperq {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

/// Concurrency hardening for the QIPC endpoint: many simultaneous
/// unchanged-Q-application clients, admission control, idle timeouts,
/// connection churn and drain-on-Stop() — the serving properties a
/// production Hyper-Q needs on top of single-connection correctness
/// (endpoint_test.cc).
class EndpointStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetAll();
    kdb::Interpreter loader;
    ASSERT_TRUE(loader
                    .EvalText(
                        "trades: ([] Symbol:`GOOG`IBM`GOOG`MSFT`IBM;"
                        " Price:720.5 151.2 721.0 52.1 150.9;"
                        " Size:100 200 150 300 120;"
                        " Time:09:30:00.000 09:30:01.000 09:30:02.000 "
                        "09:30:03.000 09:30:04.000)")
                    .ok());
    ASSERT_TRUE(LoadQTable(&db_, "trades", *loader.GetGlobal("trades")).ok());
  }

  /// Polls until the server's connection count drains to `expected`.
  static bool WaitForActive(const HyperQServer& server, int expected,
                            int timeout_ms = 5000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (server.active_connections() != expected) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  sqldb::Database db_;
};

TEST_F(EndpointStressTest, SixteenClientsFiftyQueriesEach) {
  HyperQServer server(&db_, HyperQServer::Options());
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kClients = 16;
  constexpr int kQueries = 50;
  std::atomic<int> wrong_answers{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i]() {
      auto client =
          QipcClient::Connect("127.0.0.1", server.port(), "stress", "pw");
      if (!client.ok()) {
        ++errors;
        return;
      }
      // Per-session state: each client gets its own threshold variable, so
      // cross-session leakage would produce wrong row counts.
      double threshold = i % 2 == 0 ? 700.0 : 100.0;
      size_t expect_rows = i % 2 == 0 ? 2u : 4u;
      if (!client->Query(StrCat("PX: ", threshold)).ok()) {
        ++errors;
        return;
      }
      for (int k = 0; k < kQueries; ++k) {
        Result<QValue> r =
            client->Query("select Price from trades where Price>PX");
        if (!r.ok()) {
          ++errors;
          continue;
        }
        if (!r->IsTable() || r->Count() != expect_rows) ++wrong_answers;
      }
      client->Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong_answers.load(), 0);

  // The server notices every client went away: the count drains to zero.
  EXPECT_TRUE(WaitForActive(server, 0));
  server.Stop();
}

TEST_F(EndpointStressTest, StopDuringInFlightTrafficDrainsCleanly) {
  auto server =
      std::make_unique<HyperQServer>(&db_, HyperQServer::Options());
  ASSERT_TRUE(server->Start(0).ok());

  constexpr int kClients = 8;
  std::atomic<bool> keep_going{true};
  std::atomic<int> completed{0};
  std::atomic<int> crashes_observed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&]() {
      auto client =
          QipcClient::Connect("127.0.0.1", server->port(), "s", "p");
      if (!client.ok()) return;
      while (keep_going) {
        Result<QValue> r =
            client->Query("select Size wavg Price by Symbol from trades");
        if (!r.ok()) break;  // server draining: connection closed is fine
        if (!r->IsKeyedTable()) ++crashes_observed;
        ++completed;
      }
      client->Close();
    });
  }
  // Let traffic build up, then stop mid-flight. Stop() must neither hang
  // (the join below would deadlock) nor kill in-flight replies (clients
  // only ever see complete, well-formed responses — checked above).
  while (completed.load() < 50) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  server->Stop();
  keep_going = false;
  for (auto& t : threads) t.join();
  EXPECT_EQ(crashes_observed.load(), 0);
  EXPECT_GE(completed.load(), 50);
  // Stop() drained every connection, so nothing is serving anymore.
  EXPECT_EQ(server->active_connections(), 0);
  server.reset();
}

TEST_F(EndpointStressTest, MaxConnectionsRefusesGracefully) {
  HyperQServer::Options opts;
  opts.max_connections = 2;
  HyperQServer server(&db_, opts);
  ASSERT_TRUE(server.Start(0).ok());

  auto c1 = QipcClient::Connect("127.0.0.1", server.port(), "a", "x");
  ASSERT_TRUE(c1.ok());
  auto c2 = QipcClient::Connect("127.0.0.1", server.port(), "b", "x");
  ASSERT_TRUE(c2.ok());
  // Both slots held: the third handshake is refused, not queued.
  auto c3 = QipcClient::Connect("127.0.0.1", server.port(), "c", "x");
  EXPECT_FALSE(c3.ok());

  // Admitted clients are unaffected by the refusal.
  EXPECT_TRUE(c1->Query("select from trades").ok());

  // Freeing a slot lets a new client in.
  c2->Close();
  ASSERT_TRUE(WaitForActive(server, 1));
  auto c4 = QipcClient::Connect("127.0.0.1", server.port(), "d", "x");
  EXPECT_TRUE(c4.ok()) << c4.status().ToString();
  EXPECT_TRUE(c4->Query("select from trades").ok());

  uint64_t refused =
      MetricsRegistry::Global().GetCounter("server.connections_refused")
          ->value();
  EXPECT_GE(refused, 1u);
  server.Stop();
}

TEST_F(EndpointStressTest, IdleConnectionsTimeOut) {
  HyperQServer::Options opts;
  opts.read_timeout_ms = 100;
  HyperQServer server(&db_, opts);
  ASSERT_TRUE(server.Start(0).ok());

  auto client = QipcClient::Connect("127.0.0.1", server.port(), "t", "p");
  ASSERT_TRUE(client.ok());
  // An active client inside the timeout window keeps working.
  EXPECT_TRUE(client->Query("select from trades").ok());
  // Going idle past the timeout gets the connection reaped server-side.
  ASSERT_TRUE(WaitForActive(server, 0, 3000));
  EXPECT_GE(MetricsRegistry::Global()
                .GetCounter("server.read_timeouts")
                ->value(),
            1u);
  // The client notices on its next request.
  EXPECT_FALSE(client->Query("select from trades").ok());
  server.Stop();
}

TEST_F(EndpointStressTest, StatsBuiltinOverLiveQipcAfterMixedWorkload) {
  HyperQServer::Options opts;
  opts.compress_responses = true;
  HyperQServer server(&db_, opts);
  ASSERT_TRUE(server.Start(0).ok());

  // Mixed workload from several concurrent clients: selects, grouped
  // aggregates, session variables, and errors.
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&]() {
      auto c = QipcClient::Connect("127.0.0.1", server.port(), "m", "p");
      if (!c.ok()) {
        ++errors;
        return;
      }
      for (int k = 0; k < 10; ++k) {
        if (!c->Query("select from trades where Symbol=`GOOG").ok()) ++errors;
        if (!c->Query("select sum Size by Symbol from trades").ok()) ++errors;
        if (c->Query("select from no_such_table").ok()) ++errors;
      }
      c->Close();
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(errors.load(), 0);

  // Scrape `.hyperq.stats[]` over a live QIPC connection like any Q
  // monitoring script would.
  auto scraper = QipcClient::Connect("127.0.0.1", server.port(), "s", "p");
  ASSERT_TRUE(scraper.ok());
  Result<QValue> stats = scraper->Query(".hyperq.stats[]");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->IsTable());
  const QTable& table = stats->Table();
  const std::vector<std::string>& metric = table.columns[0].SymsView();
  const std::vector<int64_t>& count = table.columns[2].Ints();
  const std::vector<double>& sum_us = table.columns[3].Floats();
  const std::vector<double>& p99_us = table.columns[6].Floats();
  int64_t queries = 0, translated = 0, session_errors = 0, conns = 0;
  double translate_sum = 0, request_p99 = 0;
  for (size_t i = 0; i < metric.size(); ++i) {
    if (metric[i] == "session.queries") queries = count[i];
    if (metric[i] == "translate.total_us") {
      translated = count[i];
      translate_sum = sum_us[i];
    }
    if (metric[i] == "session.errors") session_errors = count[i];
    if (metric[i] == "server.connections_total") conns = count[i];
    if (metric[i] == "server.request_us") request_p99 = p99_us[i];
  }
  // Per-stage translation timings are nonzero and counted per translated
  // query; per-connection counters reflect the 4 workload clients + the
  // scraper.
  EXPECT_EQ(queries, kClients * 30);
  EXPECT_EQ(translated, kClients * 20);
  EXPECT_GT(translate_sum, 0.0);
  EXPECT_EQ(session_errors, kClients * 10);
  EXPECT_EQ(conns, kClients + 1);
  EXPECT_GT(request_p99, 0.0);

  scraper->Close();
  server.Stop();
}

/// Regression: Stop() used to hang behind a connection stuck writing when
/// a client requested a response far larger than the socket buffers and
/// then never read it. The per-connection force-close timer of the drain
/// must get Stop() back within the configured window regardless of what
/// the peer does.
TEST_F(EndpointStressTest, StopDrainsBlockedWriterWithinBound) {
  // A response big enough to overflow loopback send+receive buffers, so
  // the serving side genuinely wedges mid-write.
  {
    kdb::Interpreter loader;
    ASSERT_TRUE(loader.EvalText("big: ([] a: til 2000000)").ok());
    ASSERT_TRUE(LoadQTable(&db_, "big", *loader.GetGlobal("big")).ok());
  }
  HyperQServer::Options opts;
  opts.drain_timeout_ms = 200;
  HyperQServer server(&db_, opts);
  ASSERT_TRUE(server.Start(0).ok());

  // Raw client: handshake, send the sync query, then never read a byte.
  Result<TcpConnection> conn =
      TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  std::vector<uint8_t> hs = qipc::EncodeHandshake("drain", "pw");
  ASSERT_TRUE(conn->WriteAll(hs).ok());
  Result<std::vector<uint8_t>> ack = conn->ReadExact(1);
  ASSERT_TRUE(ack.ok());
  Result<std::vector<uint8_t>> msg = qipc::EncodeMessage(
      QValue::Chars("select a from big"), qipc::MsgType::kSync);
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(conn->WriteAll(*msg).ok());

  // Give the server time to execute the query and wedge in the write.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  // Drain window (200ms) + escalation + joins; far below the hang this
  // regresses against (and below the suite timeout).
  EXPECT_LT(elapsed, 5000) << "Stop() wedged behind a blocked writer";
  conn->Close();
}

/// C100K-scale connection churn: a large block of handshaken-but-idle
/// connections, half of which disconnect at once, while fresh clients
/// keep arriving. Admission, idle accounting and fd bookkeeping must all
/// converge (no leaked slots, no stuck gauge) with thousands of idle
/// sessions parked on the event loop.
TEST_F(EndpointStressTest, IdleConnectionChurnConvergesAccounting) {
  struct rlimit nofile{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &nofile), 0);
  // Client fd + server fd per connection, plus generous headroom for the
  // suite's own files, loops and listeners.
  int fd_budget = static_cast<int>((nofile.rlim_cur - 200) / 2);
  int target = 2000;
  if (kTsan) target = std::min(target, 256);
  target = std::min(target, fd_budget);
  ASSERT_GT(target, 8) << "file descriptor limit too low for churn test";

  HyperQServer server(&db_, HyperQServer::Options());
  ASSERT_TRUE(server.Start(0).ok());

  // Open the idle block: handshake only, no queries — each one should
  // cost a state machine and an fd, not a session or a thread stack (the
  // session is created lazily on the first request).
  std::vector<TcpConnection> idle;
  idle.reserve(target);
  std::vector<uint8_t> hs = qipc::EncodeHandshake("churn", "pw");
  for (int i = 0; i < target; ++i) {
    Result<TcpConnection> c =
        TcpConnection::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok()) << "connect " << i << ": " << c.status().ToString();
    ASSERT_TRUE(c->WriteAll(hs).ok());
    Result<std::vector<uint8_t>> ack = c->ReadExact(1);
    ASSERT_TRUE(ack.ok()) << "handshake " << i;
    idle.push_back(std::move(*c));
  }
  ASSERT_TRUE(WaitForActive(server, target));

  // The idle gauge follows the admitted-and-quiet population.
  Gauge* idle_gauge =
      MetricsRegistry::Global().GetGauge("server.connections_idle");
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (idle_gauge->value() != target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(idle_gauge->value(), target);

  // Churn: the first half disconnects at once.
  int half = target / 2;
  for (int i = 0; i < half; ++i) idle[i].Close();
  ASSERT_TRUE(WaitForActive(server, target - half))
      << "server did not reap " << half << " closed connections";

  // Fresh clients are admitted and served while the survivors sit idle.
  auto fresh = QipcClient::Connect("127.0.0.1", server.port(), "f", "p");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(fresh->Query("select from trades").ok());
  fresh->Close();

  // Everyone leaves: both the active count and the idle gauge converge
  // to zero — the fd/slot accounting survived the churn.
  for (int i = half; i < target; ++i) idle[i].Close();
  ASSERT_TRUE(WaitForActive(server, 0));
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (idle_gauge->value() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(idle_gauge->value(), 0);
  server.Stop();
}

}  // namespace
}  // namespace hyperq
