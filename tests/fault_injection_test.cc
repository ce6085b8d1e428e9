#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "core/endpoint.h"
#include "kdb/engine.h"
#include "shard/sharded_backend.h"

namespace hyperq {
namespace {

/// Deterministic fault injection across the whole gateway path
/// (docs/ROBUSTNESS.md): every registered site is driven to failure and
/// must produce a structured error — never a hang, never a torn frame —
/// with the server fully usable afterwards.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Clear();
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
    trades_ = *loader.GetGlobal("trades");
    ASSERT_TRUE(LoadQTable(&db_, "trades", trades_).ok());
  }

  void TearDown() override { FaultInjector::Global().Clear(); }

  static uint64_t CounterValue(const char* name) {
    return MetricsRegistry::Global().GetCounter(name)->value();
  }

  /// Server options that front every connection with the scatter-gather
  /// coordinator over `backend` (docs/SCALE_OUT.md).
  static HyperQServer::Options ShardedOptions(shard::ShardedBackend* backend) {
    HyperQServer::Options opts;
    opts.gateway_factory = [backend]() {
      return std::make_unique<shard::ShardedGateway>(backend);
    };
    return opts;
  }

  QValue trades_;
  sqldb::Database db_;
};

// ---------------------------------------------------------------------------
// Spec mini-language.

TEST_F(FaultInjectionTest, ArmAcceptsWellFormedSpecs) {
  FaultInjector& fi = FaultInjector::Global();
  EXPECT_TRUE(fi.Arm("net.read=error").ok());
  EXPECT_TRUE(fi.Arm("backend.execute=error:backend lost,after:2,once").ok());
  EXPECT_TRUE(fi.Arm("net.write=short:16,p:0.25").ok());
  EXPECT_TRUE(fi.Arm("pool.task=delay:5,p:0.1").ok());
  EXPECT_TRUE(
      fi.Arm("net.read=error;qipc.decode=error,times:3;net.write=delay:1")
          .ok());
  EXPECT_TRUE(FaultInjector::AnyArmed());
  fi.Clear();
  EXPECT_FALSE(FaultInjector::AnyArmed());
}

TEST_F(FaultInjectionTest, ArmRejectsMalformedSpecsAtomically) {
  FaultInjector& fi = FaultInjector::Global();
  EXPECT_FALSE(fi.Arm("").ok());
  EXPECT_FALSE(fi.Arm("nosuchsite=error").ok());
  EXPECT_FALSE(fi.Arm("net.read").ok());
  EXPECT_FALSE(fi.Arm("net.read=explode").ok());
  EXPECT_FALSE(fi.Arm("net.read=delay:notanumber").ok());
  EXPECT_FALSE(fi.Arm("net.read=error,p:1.5").ok());
  EXPECT_FALSE(fi.Arm("net.read=error,times:0").ok());
  // A bad member poisons the whole list: nothing gets armed.
  EXPECT_FALSE(fi.Arm("net.read=error;bogus.site=error").ok());
  EXPECT_FALSE(FaultInjector::AnyArmed());
}

TEST_F(FaultInjectionTest, TriggerSemantics) {
  FaultInjector& fi = FaultInjector::Global();
  // after:2,once — exactly the third evaluation fires.
  ASSERT_TRUE(fi.Arm("backend.execute=error,after:2,once").ok());
  EXPECT_EQ(fi.Evaluate("backend.execute").kind, FaultHit::Kind::kNone);
  EXPECT_EQ(fi.Evaluate("backend.execute").kind, FaultHit::Kind::kNone);
  FaultHit third = fi.Evaluate("backend.execute");
  EXPECT_EQ(third.kind, FaultHit::Kind::kError);
  EXPECT_EQ(third.error.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fi.Evaluate("backend.execute").kind, FaultHit::Kind::kNone);

  // times:2 — exactly two fires.
  ASSERT_TRUE(fi.Arm("qipc.decode=error,times:2").ok());
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (fi.Evaluate("qipc.decode").kind != FaultHit::Kind::kNone) ++fires;
  }
  EXPECT_EQ(fires, 2);

  // Sites fail with their natural codes and a self-describing message.
  ASSERT_TRUE(fi.Arm("net.read=error").ok());
  FaultHit net = fi.Evaluate("net.read");
  EXPECT_EQ(net.error.code(), StatusCode::kNetworkError);
  EXPECT_NE(net.error.message().find("injected fault at net.read"),
            std::string::npos);

  // Custom error message.
  ASSERT_TRUE(fi.Arm("net.write=error:cable cut").ok());
  EXPECT_EQ(fi.Evaluate("net.write").error.message(), "cable cut");

  // Short-write carries its byte budget.
  ASSERT_TRUE(fi.Arm("net.write=short:7").ok());
  FaultHit sw = fi.Evaluate("net.write");
  EXPECT_EQ(sw.kind, FaultHit::Kind::kShortWrite);
  EXPECT_EQ(sw.short_len, 7u);
}

TEST_F(FaultInjectionTest, SeededProbabilityIsDeterministic) {
  FaultInjector& fi = FaultInjector::Global();
  auto pattern = [&fi]() {
    std::vector<bool> fired;
    fi.Reseed(12345);
    EXPECT_TRUE(fi.Arm("backend.execute=error,p:0.5").ok());
    for (int i = 0; i < 64; ++i) {
      fired.push_back(fi.Evaluate("backend.execute").kind !=
                      FaultHit::Kind::kNone);
    }
    return fired;
  };
  std::vector<bool> first = pattern();
  std::vector<bool> second = pattern();
  EXPECT_EQ(first, second) << "same seed must give the same fire pattern";
  // A 0.5-probability site over 64 draws fires some but not all the time.
  int fires = 0;
  for (bool b : first) fires += b ? 1 : 0;
  EXPECT_GT(fires, 8);
  EXPECT_LT(fires, 56);
}

TEST_F(FaultInjectionTest, StatsCountHitsAndFires) {
  FaultInjector& fi = FaultInjector::Global();
  ASSERT_TRUE(fi.Arm("backend.execute=error,once").ok());
  (void)fi.Evaluate("backend.execute");
  (void)fi.Evaluate("backend.execute");
  for (const FaultInjector::SiteStats& s : fi.Stats()) {
    if (s.site == "backend.execute") {
      EXPECT_EQ(s.spec, "backend.execute=error,once");
      EXPECT_EQ(s.hits, 2u);
      EXPECT_EQ(s.fires, 1u);
    }
  }
  EXPECT_GE(CounterValue("fault.fired.backend.execute"), 1u);
}

// ---------------------------------------------------------------------------
// Every registered site, end to end: structured failure, then recovery.

TEST_F(FaultInjectionTest, EverySiteFailsCleanAndServerRecovers) {
  HyperQServer server(&db_, HyperQServer::Options{});
  ASSERT_TRUE(server.Start(0).ok());

  for (const std::string& site : FaultInjector::KnownSites()) {
    SCOPED_TRACE(site);
    // Connect before arming so the handshake itself is not the victim —
    // each site's fault then lands on the request path (or nowhere, for
    // sites not on the QIPC serving path, which must be harmless).
    Result<QipcClient> client =
        QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(FaultInjector::Global().Arm(site + "=error,once").ok());
    Result<QValue> r = client->Query("select Price from trades");
    // Either a structured error reply, a clean connection error, or —
    // for sites this path never touches (pgwire.*) or that degrade
    // gracefully (backend.execute retries) — success. What is forbidden is a hang or a torn frame, which would
    // fail this test's read loop or wedge the suite.
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty());
    }
    client->Close();
    FaultInjector::Global().Clear();

    // The server must remain fully usable afterwards.
    Result<QipcClient> again =
        QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
    ASSERT_TRUE(again.ok()) << "server unusable after fault at " << site;
    Result<QValue> ok = again->Query("select Price from trades");
    EXPECT_TRUE(ok.ok()) << "server unusable after fault at " << site << ": "
                         << ok.status().ToString();
    again->Close();
  }
  server.Stop();
}

TEST_F(FaultInjectionTest, DecodeAndEncodeFaultsAreStructuredReplies) {
  HyperQServer server(&db_, HyperQServer::Options{});
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(FaultInjector::Global().Arm("qipc.decode=error,once").ok());
  Result<QValue> r1 = client->Query("select Price from trades");
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("injected fault"), std::string::npos);
  // Same connection keeps working: the frame was answered, not torn.
  EXPECT_TRUE(client->Query("select Price from trades").ok());

  ASSERT_TRUE(FaultInjector::Global().Arm("qipc.encode=error,once").ok());
  Result<QValue> r2 = client->Query("select Price from trades");
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("injected fault"), std::string::npos);
  EXPECT_TRUE(client->Query("select Price from trades").ok());

  client->Close();
  server.Stop();
}

TEST_F(FaultInjectionTest, ShortWriteKillsConnectionButNotServer) {
  HyperQServer server(&db_, HyperQServer::Options{});
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  // The response frame is cut after 10 bytes and the connection failed —
  // the server must never follow a torn frame with more bytes.
  ASSERT_TRUE(FaultInjector::Global().Arm("net.write=short:10,once").ok());
  Result<QValue> r = client->Query("select Price from trades");
  EXPECT_FALSE(r.ok());
  client->Close();
  FaultInjector::Global().Clear();

  Result<QipcClient> again =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->Query("select Price from trades").ok());
  again->Close();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Retry policy around backend execution.

TEST_F(FaultInjectionTest, TransientBackendFaultIsRetriedTransparently) {
  HyperQServer server(&db_, HyperQServer::Options{});
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  uint64_t attempts_before = CounterValue("retry.attempts");
  ASSERT_TRUE(FaultInjector::Global().Arm("backend.execute=error,once").ok());
  // One transient failure, then success: the client never sees the fault.
  Result<QValue> r = client->Query("select Price from trades");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(CounterValue("retry.attempts"), attempts_before);
  EXPECT_GE(CounterValue("retry.success"), 1u);
  EXPECT_GE(CounterValue("fault.fired.backend.execute"), 1u);

  client->Close();
  server.Stop();
}

TEST_F(FaultInjectionTest, PersistentBackendFaultSurfacesBusy) {
  HyperQServer server(&db_, HyperQServer::Options{});
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  uint64_t exhausted_before = CounterValue("retry.exhausted");
  ASSERT_TRUE(FaultInjector::Global().Arm("backend.execute=error").ok());
  Result<QValue> r = client->Query("select Price from trades");
  ASSERT_FALSE(r.ok());
  // kUnavailable maps to the structured 'busy wire error.
  EXPECT_NE(r.status().message().find("busy"), std::string::npos)
      << r.status().ToString();
  EXPECT_GT(CounterValue("retry.exhausted"), exhausted_before);

  // Connection survives the error and works once the fault clears.
  FaultInjector::Global().Clear();
  EXPECT_TRUE(client->Query("select Price from trades").ok());
  client->Close();
  server.Stop();
}

TEST_F(FaultInjectionTest, SetupStatementsAreNeverRetried) {
  HyperQServer server(&db_, HyperQServer::Options{});
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  uint64_t attempts_before = CounterValue("retry.attempts");
  ASSERT_TRUE(FaultInjector::Global().Arm("backend.execute=error,once").ok());
  // The pipeline's first statement materializes a variable — a
  // side-effecting setup statement. Its failure must surface, not retry:
  // a blind re-dispatch could double-apply.
  Result<QValue> r = client->Query(
      "V: select Symbol, Price from trades where Price>100.0; "
      "select Price from V");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(CounterValue("retry.attempts"), attempts_before)
      << "setup statement was retried";

  client->Close();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST_F(FaultInjectionTest, DeadlineExceededReturnsTimeoutWithinTwice) {
  HyperQServer server(&db_, HyperQServer::Options{});
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  constexpr int kDeadlineMs = 300;
  ASSERT_TRUE(client->Query(StrCat(".hyperq.deadline[", kDeadlineMs, "]"))
                  .ok());
  // A backend that takes 450ms blows the 300ms budget; cooperative
  // cancellation converts the late result into 'timeout.
  ASSERT_TRUE(FaultInjector::Global().Arm("backend.execute=delay:450").ok());
  auto t0 = std::chrono::steady_clock::now();
  Result<QValue> r = client->Query("select Price from trades");
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("timeout"), std::string::npos)
      << r.status().ToString();
  EXPECT_LT(elapsed_ms, 2 * kDeadlineMs)
      << "'timeout must arrive within 2x the deadline";
  EXPECT_GE(CounterValue("deadline.timeouts"), 1u);
  EXPECT_GE(CounterValue("deadline.armed_queries"), 1u);

  // The connection is fully usable after the timeout.
  FaultInjector::Global().Clear();
  EXPECT_TRUE(client->Query("select Price from trades").ok());
  // Deadline off again: a niladic call reports, [0] disables.
  ASSERT_TRUE(client->Query(".hyperq.deadline[0]").ok());
  EXPECT_TRUE(client->Query("select Price from trades").ok());
  client->Close();
  server.Stop();
}

TEST_F(FaultInjectionTest, ExecutorCancelsAtMorselBoundaries) {
  // Drive the columnar executor directly with an already-expired ambient
  // deadline: stage/morsel checks must yield kTimeout, not a result.
  kdb::Interpreter loader;
  ASSERT_TRUE(loader.EvalText("big: ([] a: til 100000; b: til 100000)").ok());
  ASSERT_TRUE(LoadQTable(&db_, "big", *loader.GetGlobal("big")).ok());
  auto session = db_.CreateSession();

  ScopedDeadline expired(Deadline::After(0));
  Result<sqldb::QueryResult> r = db_.Execute(
      session.get(),
      "SELECT a, SUM(b) FROM big WHERE a > 10 GROUP BY a ORDER BY a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout)
      << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Load shedding.

TEST_F(FaultInjectionTest, OverCapQueriesAreShedWithBusy) {
  HyperQServer::Options opts;
  opts.max_inflight_queries = 1;
  HyperQServer server(&db_, opts);
  ASSERT_TRUE(server.Start(0).ok());

  // Make every query slow so three concurrent callers genuinely overlap.
  ASSERT_TRUE(FaultInjector::Global().Arm("backend.execute=delay:400").ok());
  std::atomic<int> ok_count{0}, busy_count{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i]() {
      Result<QipcClient> c =
          QipcClient::Connect("127.0.0.1", server.port(), "shed", "pw");
      if (!c.ok()) {
        ++other;
        return;
      }
      Result<QValue> r = c->Query("select Price from trades");
      if (r.ok()) {
        ++ok_count;
      } else if (r.status().message().find("busy") != std::string::npos) {
        ++busy_count;
      } else {
        ++other;
      }
      c->Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(ok_count.load(), 1) << "no query got through the cap";
  EXPECT_GE(busy_count.load(), 1) << "no query was shed with 'busy";
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(CounterValue("server.busy_rejections"), 1u);

  // Shedding is stateless: with the load gone, queries flow again.
  FaultInjector::Global().Clear();
  Result<QipcClient> c =
      QipcClient::Connect("127.0.0.1", server.port(), "shed", "pw");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->Query("select Price from trades").ok());
  c->Close();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Sharded scatter-gather fault sites (docs/SCALE_OUT.md): one failing
// shard must surface a structured error — never a hang — a transient
// shard fault must be retried transparently (the scatter is a pure read,
// so re-dispatch is idempotent), and a straggler shard is bounded by the
// query deadline.

TEST_F(FaultInjectionTest, TransientShardFaultIsRetriedTransparently) {
  shard::ShardedBackend sharded(4);
  ASSERT_TRUE(sharded.LoadQTable("trades", trades_).ok());
  HyperQServer server(sharded.fallback(), ShardedOptions(&sharded));
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  uint64_t scatters_before = CounterValue("shard.scatter");
  ASSERT_TRUE(FaultInjector::Global().Arm("shard.execute=error,once").ok());
  // One shard fails once; the whole scatter is re-dispatched and the
  // client never sees the fault.
  Result<QValue> r = client->Query("select sum Price by Symbol from trades");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(CounterValue("retry.success"), 1u);
  EXPECT_GE(CounterValue("fault.fired.shard.execute"), 1u);
  EXPECT_GT(CounterValue("shard.scatter"), scatters_before)
      << "query did not take the scatter path";

  client->Close();
  server.Stop();
}

TEST_F(FaultInjectionTest, OneShardFailingSurfacesStructuredErrorNotHang) {
  shard::ShardedBackend sharded(4);
  ASSERT_TRUE(sharded.LoadQTable("trades", trades_).ok());
  HyperQServer server(sharded.fallback(), ShardedOptions(&sharded));
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  uint64_t errors_before = CounterValue("shard.errors");
  ASSERT_TRUE(FaultInjector::Global().Arm("shard.execute=error").ok());
  Result<QValue> r = client->Query("select sum Price by Symbol from trades");
  ASSERT_FALSE(r.ok());
  // kUnavailable maps to the structured 'busy wire error; the connection
  // was answered, not torn or hung.
  EXPECT_NE(r.status().message().find("busy"), std::string::npos)
      << r.status().ToString();
  EXPECT_GT(CounterValue("shard.errors"), errors_before);

  // Same connection, fault cleared: the coordinator is fully usable.
  FaultInjector::Global().Clear();
  Result<QValue> ok = client->Query("select sum Price by Symbol from trades");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  client->Close();
  server.Stop();
}

TEST_F(FaultInjectionTest, GatherFaultSurfacesAndCoordinatorRecovers) {
  shard::ShardedBackend sharded(2);
  ASSERT_TRUE(sharded.LoadQTable("trades", trades_).ok());
  HyperQServer server(sharded.fallback(), ShardedOptions(&sharded));
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  // Transient gather fault: retried transparently, like shard.execute.
  ASSERT_TRUE(FaultInjector::Global().Arm("shard.gather=error,once").ok());
  EXPECT_TRUE(client->Query("select max Price by Symbol from trades").ok());
  EXPECT_GE(CounterValue("fault.fired.shard.gather"), 1u);

  // Persistent gather fault: structured 'busy, then clean recovery.
  ASSERT_TRUE(FaultInjector::Global().Arm("shard.gather=error").ok());
  Result<QValue> r = client->Query("select max Price by Symbol from trades");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("busy"), std::string::npos)
      << r.status().ToString();
  FaultInjector::Global().Clear();
  EXPECT_TRUE(client->Query("select max Price by Symbol from trades").ok());
  client->Close();
  server.Stop();
}

TEST_F(FaultInjectionTest, StragglerShardIsBoundedByDeadline) {
  shard::ShardedBackend sharded(4);
  ASSERT_TRUE(sharded.LoadQTable("trades", trades_).ok());
  HyperQServer server(sharded.fallback(), ShardedOptions(&sharded));
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  constexpr int kDeadlineMs = 300;
  ASSERT_TRUE(
      client->Query(StrCat(".hyperq.deadline[", kDeadlineMs, "]")).ok());
  // Exactly one shard straggles past the budget; the other three finish.
  // The scatter must convert the straggler into 'timeout within 2x the
  // deadline instead of waiting it out per shard.
  ASSERT_TRUE(
      FaultInjector::Global().Arm("shard.execute=delay:450,once").ok());
  auto t0 = std::chrono::steady_clock::now();
  Result<QValue> r = client->Query("select sum Price by Symbol from trades");
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("timeout"), std::string::npos)
      << r.status().ToString();
  EXPECT_LT(elapsed_ms, 2 * kDeadlineMs)
      << "'timeout must arrive within 2x the deadline";
  EXPECT_GE(CounterValue("deadline.timeouts"), 1u);

  // Deadline still armed, fault gone: queries flow again.
  FaultInjector::Global().Clear();
  EXPECT_TRUE(client->Query("select sum Price by Symbol from trades").ok());
  client->Close();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Wire control builtins.

TEST_F(FaultInjectionTest, FaultBuiltinsControlInjectorOverTheWire) {
  HyperQServer server(&db_, HyperQServer::Options{});
  ASSERT_TRUE(server.Start(0).ok());
  Result<QipcClient> client =
      QipcClient::Connect("127.0.0.1", server.port(), "fault", "pw");
  ASSERT_TRUE(client.ok());

  // Sites are introspectable.
  Result<QValue> sites = client->Query(".hyperq.faultSites[]");
  ASSERT_TRUE(sites.ok());
  EXPECT_EQ(sites->Count(), FaultInjector::KnownSites().size());

  // Arm over the wire, observe the fault, inspect stats, clear.
  ASSERT_TRUE(client->Query(".hyperq.faultSeed[777]").ok());
  ASSERT_TRUE(
      client->Query(".hyperq.fault[\"backend.execute=error\"]").ok());
  Result<QValue> r = client->Query("select Price from trades");
  ASSERT_FALSE(r.ok());
  Result<QValue> stats = client->Query(".hyperq.faultStats[]");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->IsTable());

  ASSERT_TRUE(client->Query(".hyperq.faultClear[]").ok());
  EXPECT_TRUE(client->Query("select Price from trades").ok());

  // Bad specs are rejected with a structured error, not accepted silently.
  EXPECT_FALSE(client->Query(".hyperq.fault[\"bogus.site=error\"]").ok());
  EXPECT_FALSE(client->Query(".hyperq.faultSeed[notanint]").ok());

  client->Close();
  server.Stop();
}

}  // namespace
}  // namespace hyperq
