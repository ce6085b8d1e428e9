#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/endpoint.h"
#include "core/gateway_wire.h"
#include "kdb/engine.h"
#include "net/tcp.h"
#include "testing/market_data.h"

namespace hyperq {
namespace {

/// The zero-copy egress pieces below the QIPC/pgwire encoders: WriteAllV
/// must behave exactly like WriteAll over the concatenation for every
/// slice pattern, and the endpoint must serve correct results through the
/// scatter path (and blocked compression) under concurrent sessions.
class WirePathTest : public ::testing::Test {};

/// Sends `slices` through a loopback socket with WriteAllV and returns
/// everything the peer received until EOF.
std::vector<uint8_t> Loopback(const std::vector<IoSlice>& slices) {
  auto listener = TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok());
  std::vector<uint8_t> received;
  std::thread reader([&]() {
    auto conn = listener->Accept();
    if (!conn.ok()) return;
    for (;;) {
      auto chunk = conn->ReadSome(1 << 16);
      if (!chunk.ok() || chunk->empty()) break;
      received.insert(received.end(), chunk->begin(), chunk->end());
    }
  });
  auto client = TcpConnection::Connect("127.0.0.1", listener->port());
  EXPECT_TRUE(client.ok());
  EXPECT_TRUE(client->WriteAllV(slices).ok());
  client->Close();
  reader.join();
  return received;
}

std::vector<uint8_t> Concat(const std::vector<IoSlice>& slices) {
  std::vector<uint8_t> all;
  for (const IoSlice& s : slices) {
    const uint8_t* p = static_cast<const uint8_t*>(s.data);
    all.insert(all.end(), p, p + s.len);
  }
  return all;
}

TEST_F(WirePathTest, WriteAllVMatchesConcatenation) {
  testing::Rng rng(7);
  // Many small slices with empties interleaved: well past the 64-iovec
  // batch size, so the cursor has to rebuild the window repeatedly.
  std::vector<std::vector<uint8_t>> bufs;
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> b(rng.Below(40));
    for (auto& x : b) x = static_cast<uint8_t>(rng.Below(256));
    bufs.push_back(std::move(b));
  }
  std::vector<IoSlice> slices;
  for (const auto& b : bufs) slices.push_back({b.data(), b.size()});
  EXPECT_EQ(Loopback(slices), Concat(slices));
}

TEST_F(WirePathTest, WriteAllVLargeSlicesForcePartialWrites) {
  testing::Rng rng(9);
  // A few multi-megabyte slices exceed the socket send buffer, so sendmsg
  // returns short and the cursor must resume mid-slice.
  std::vector<std::vector<uint8_t>> bufs;
  for (size_t len : {3u << 20, 0u, 1u << 20, 5u, 2u << 20}) {
    std::vector<uint8_t> b(len);
    for (auto& x : b) x = static_cast<uint8_t>(rng.Below(256));
    bufs.push_back(std::move(b));
  }
  std::vector<IoSlice> slices;
  for (const auto& b : bufs) slices.push_back({b.data(), b.size()});
  EXPECT_EQ(Loopback(slices), Concat(slices));
}

TEST_F(WirePathTest, WriteAllVEdgeCases) {
  // No slices / only empty slices: both are complete writes of 0 bytes.
  EXPECT_EQ(Loopback({}), std::vector<uint8_t>{});
  std::vector<IoSlice> empties(70, IoSlice{"", 0});
  EXPECT_EQ(Loopback(empties), std::vector<uint8_t>{});
}

/// Serves `trades` plus a large table and runs concurrent clients issuing
/// big-result queries: every response travels the scatter (or blocked
/// compression) egress, and every byte must still decode to the right
/// value on the client.
void RunConcurrentSessions(HyperQServer::Options options) {
  kdb::Interpreter loader;
  ASSERT_TRUE(
      loader.EvalText("big: ([] V: til 50000; W: 2*til 50000)").ok());
  sqldb::Database db;
  ASSERT_TRUE(LoadQTable(&db, "big", *loader.GetGlobal("big")).ok());

  HyperQServer server(&db, options);
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kClients = 8;
  constexpr int kQueries = 5;
  std::atomic<int> errors{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&]() {
      auto client = QipcClient::Connect("127.0.0.1", server.port(), "u", "p");
      if (!client.ok()) {
        ++errors;
        return;
      }
      for (int k = 0; k < kQueries; ++k) {
        Result<QValue> r = client->Query("select V, W from big");
        if (!r.ok()) {
          ++errors;
          continue;
        }
        if (!r->IsTable() || r->Count() != 50000) {
          ++wrong;
          continue;
        }
        const QTable& t = r->Table();
        const std::vector<int64_t>& v = t.columns[0].Ints();
        const std::vector<int64_t>& w = t.columns[1].Ints();
        for (size_t j = 0; j < v.size(); j += 4999) {
          if (v[j] != static_cast<int64_t>(j) ||
              w[j] != static_cast<int64_t>(2 * j)) {
            ++wrong;
            break;
          }
        }
      }
      client->Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  server.Stop();
}

TEST_F(WirePathTest, ConcurrentSessionsThroughScatterPath) {
  RunConcurrentSessions(HyperQServer::Options{});
}

TEST_F(WirePathTest, ConcurrentSessionsWithSingleStreamCompression) {
  HyperQServer::Options options;
  options.compress_responses = true;
  RunConcurrentSessions(options);
}

}  // namespace
}  // namespace hyperq
