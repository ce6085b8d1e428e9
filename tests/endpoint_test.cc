#include <gtest/gtest.h>

#include <cstring>

#include "common/strings.h"
#include "core/endpoint.h"
#include "core/gateway_wire.h"
#include "kdb/engine.h"

namespace hyperq {
namespace {

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

/// The full paper pipeline over real sockets: an unchanged "Q application"
/// (QipcClient) talks QIPC to Hyper-Q, which translates and executes
/// against the PG-compatible backend (§3 Query Life Cycle).
class EndpointTest : public ::testing::Test {
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
    ASSERT_TRUE(LoadQTable(&db_, "trades", *loader.GetGlobal("trades")).ok());
    server_ = std::make_unique<HyperQServer>(&db_, HyperQServer::Options());
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override { server_->Stop(); }

  sqldb::Database db_;
  std::unique_ptr<HyperQServer> server_;
};

TEST_F(EndpointTest, QueryLifeCycleOverQipc) {
  auto client =
      QipcClient::Connect("127.0.0.1", server_->port(), "trader", "pw");
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto result = client->Query("select Price from trades where Symbol=`GOOG");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->IsTable());
  EXPECT_EQ(result->Count(), 2u);
  EXPECT_DOUBLE_EQ(result->Table().columns[0].Floats()[1], 721.0);
  client->Close();
}

TEST_F(EndpointTest, MultipleQueriesShareSessionState) {
  auto client =
      QipcClient::Connect("127.0.0.1", server_->port(), "trader", "pw");
  ASSERT_TRUE(client.ok());
  // Variable defined in one message is visible in the next (session scope,
  // §3.2.3).
  ASSERT_TRUE(client->Query("SOMEPX: 700.0").ok());
  auto result = client->Query("select from trades where Price>SOMEPX");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Count(), 2u);
  client->Close();
}

TEST_F(EndpointTest, ErrorsTravelAsQipcErrors) {
  auto client =
      QipcClient::Connect("127.0.0.1", server_->port(), "trader", "pw");
  ASSERT_TRUE(client.ok());
  auto result = client->Query("select from nonexistent_table");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("nonexistent_table"),
            std::string::npos);
  // The connection survives the error.
  EXPECT_TRUE(client->Query("select from trades").ok());
  client->Close();
}

TEST_F(EndpointTest, AggregateAtomOverWire) {
  auto client =
      QipcClient::Connect("127.0.0.1", server_->port(), "trader", "pw");
  ASSERT_TRUE(client.ok());
  auto result = client->Query("exec max Price from trades");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->is_atom());
  EXPECT_DOUBLE_EQ(result->AsFloat(), 721.0);
  client->Close();
}

TEST_F(EndpointTest, CompressedResponsesDecodeTransparently) {
  HyperQServer::Options opts;
  opts.compress_responses = true;
  HyperQServer compressed(&db_, opts);
  ASSERT_TRUE(compressed.Start(0).ok());
  auto client =
      QipcClient::Connect("127.0.0.1", compressed.port(), "t", "p");
  ASSERT_TRUE(client.ok());
  // Large repetitive result: crosses the compression threshold.
  auto result = client->Query("select from trades uj trades uj trades");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Count(), 15u);
  client->Close();
  compressed.Stop();
}

TEST_F(EndpointTest, AuthRejectionClosesConnection) {
  HyperQServer::Options opts;
  opts.user = "alice";
  opts.password = "correct";
  HyperQServer secured(&db_, opts);
  ASSERT_TRUE(secured.Start(0).ok());
  auto bad = QipcClient::Connect("127.0.0.1", secured.port(), "alice",
                                 "wrong");
  EXPECT_FALSE(bad.ok());
  auto good = QipcClient::Connect("127.0.0.1", secured.port(), "alice",
                                  "correct");
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  secured.Stop();
}

TEST_F(EndpointTest, ConcurrentClients) {
  // kdb+ serializes requests (§2.2); Hyper-Q allows concurrent sessions
  // ("configurable concurrency" is one of its improvements, §5).
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&]() {
      auto client =
          QipcClient::Connect("127.0.0.1", server_->port(), "t", "p");
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int k = 0; k < 5; ++k) {
        auto r = client->Query("select Size wavg Price by Symbol from trades");
        if (!r.ok() || !r->IsKeyedTable()) ++failures;
      }
      client->Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(EndpointTest, PipelinedRequestsAreServedInOrder) {
  // A q client may write several sync messages back to back before reading
  // any reply; the server must answer each, in order. The event loop
  // decodes the burst out of one read buffer.
  Result<TcpConnection> conn =
      TcpConnection::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll(qipc::EncodeHandshake("pipe", "pw")).ok());
  ASSERT_TRUE(conn->ReadExact(1).ok());

  constexpr int kBurst = 8;
  std::vector<uint8_t> burst;
  for (int i = 0; i < kBurst; ++i) {
    auto msg = qipc::EncodeMessage(QValue::Chars(StrCat("2+", i)),
                                   qipc::MsgType::kSync);
    ASSERT_TRUE(msg.ok());
    burst.insert(burst.end(), msg->begin(), msg->end());
  }
  ASSERT_TRUE(conn->WriteAll(burst).ok());

  for (int i = 0; i < kBurst; ++i) {
    uint8_t header[8];
    ASSERT_TRUE(conn->ReadExactInto(header, 8).ok());
    Result<uint32_t> len = qipc::PeekMessageLength(header);
    ASSERT_TRUE(len.ok());
    std::vector<uint8_t> whole(*len);
    std::memcpy(whole.data(), header, 8);
    ASSERT_TRUE(conn->ReadExactInto(whole.data() + 8, *len - 8).ok());
    Result<qipc::DecodedMessage> reply = qipc::DecodeMessage(whole);
    ASSERT_TRUE(reply.ok());
    ASSERT_FALSE(reply->is_error);
    EXPECT_EQ(reply->value.AsInt(), 2 + i) << "burst reply " << i;
  }
  conn->Close();
}

TEST_F(EndpointTest, UnknownCompressionSchemeGetsErrorReply) {
  // A query wrapped in the retired blocked layout (compression byte 2,
  // one raw block) is refused with a structured error, and the connection
  // keeps serving plain requests.
  Result<TcpConnection> conn =
      TcpConnection::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll(qipc::EncodeHandshake("scheme", "pw")).ok());
  ASSERT_TRUE(conn->ReadExact(1).ok());
  auto read_reply = [&]() -> Result<qipc::DecodedMessage> {
    uint8_t header[8];
    HQ_RETURN_IF_ERROR(conn->ReadExactInto(header, 8));
    HQ_ASSIGN_OR_RETURN(uint32_t len, qipc::PeekMessageLength(header));
    std::vector<uint8_t> whole(len);
    std::memcpy(whole.data(), header, 8);
    HQ_RETURN_IF_ERROR(conn->ReadExactInto(whole.data() + 8, len - 8));
    return qipc::DecodeMessage(whole);
  };

  auto plain =
      qipc::EncodeMessage(QValue::Chars("1+1"), qipc::MsgType::kSync);
  ASSERT_TRUE(plain.ok());
  const uint32_t body = static_cast<uint32_t>(plain->size() - 8);
  std::vector<uint8_t> frame = {1, static_cast<uint8_t>(qipc::MsgType::kSync),
                                2, 0};
  for (uint32_t v : {12 + 8 + body, static_cast<uint32_t>(plain->size()),
                     body, body}) {
    for (int k = 0; k < 4; ++k) frame.push_back((v >> (8 * k)) & 0xFF);
  }
  frame.insert(frame.end(), plain->begin() + 8, plain->end());
  ASSERT_TRUE(conn->WriteAll(frame).ok());
  Result<qipc::DecodedMessage> refused = read_reply();
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_TRUE(refused->is_error);
  EXPECT_NE(refused->error.find("compression"), std::string::npos)
      << refused->error;

  ASSERT_TRUE(conn->WriteAll(*plain).ok());
  Result<qipc::DecodedMessage> answered = read_reply();
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  ASSERT_FALSE(answered->is_error) << answered->error;
  EXPECT_EQ(answered->value.AsInt(), 2);
  conn->Close();
}

/// The server's raw frames must equal an in-process encoding of the same
/// request stream: one HyperQSession over a fresh identical backend, each
/// success encoded with the contiguous qipc::EncodeMessage and each error
/// with qipc::EncodeError. This pins the whole serving path — handshake,
/// framing, the scatter encoder against the contiguous one, error text —
/// to an oracle that shares none of the server's reply code.
TEST(QipcWireOracleTest, ServerFramesEqualInProcessEncoding) {
  const std::vector<std::string> queries = {
      "select Price from trades where Symbol=`GOOG",
      "select Size wavg Price by Symbol from trades",
      "exec max Price from trades",
      "select from nonexistent_table",  // error frame
      "PX: 700.0",
      "select from trades where Price>PX",
      "1+1",
  };
  auto load = [](sqldb::Database* db) {
    kdb::Interpreter loader;
    ASSERT_TRUE(loader
                    .EvalText(
                        "trades: ([] Symbol:`GOOG`IBM`GOOG`MSFT`IBM;"
                        " Price:720.5 151.2 721.0 52.1 150.9;"
                        " Size:100 200 150 300 120;"
                        " Time:09:30:00.000 09:30:01.000 09:30:02.000 "
                        "09:30:03.000 09:30:04.000)")
                    .ok());
    ASSERT_TRUE(LoadQTable(db, "trades", *loader.GetGlobal("trades")).ok());
  };

  std::vector<std::vector<uint8_t>> expected = {{3}};  // handshake ack
  {
    sqldb::Database db;
    load(&db);
    HyperQSession session(&db);
    for (const std::string& q : queries) {
      expected.push_back(ExpectedQipcReply(&session, q));
    }
  }

  sqldb::Database db;
  load(&db);
  HyperQServer server(&db, HyperQServer::Options());
  ASSERT_TRUE(server.Start(0).ok());
  Result<TcpConnection> conn =
      TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll(qipc::EncodeHandshake("oracle", "pw")).ok());
  std::vector<std::vector<uint8_t>> served;
  Result<std::vector<uint8_t>> ack = conn->ReadExact(1);
  ASSERT_TRUE(ack.ok());
  served.push_back(*ack);
  for (const std::string& q : queries) {
    auto msg = qipc::EncodeMessage(QValue::Chars(q), qipc::MsgType::kSync);
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(conn->WriteAll(*msg).ok());
    uint8_t header[8];
    ASSERT_TRUE(conn->ReadExactInto(header, 8).ok());
    Result<uint32_t> len = qipc::PeekMessageLength(header);
    ASSERT_TRUE(len.ok());
    std::vector<uint8_t> whole(*len);
    std::memcpy(whole.data(), header, 8);
    ASSERT_TRUE(conn->ReadExactInto(whole.data() + 8, *len - 8).ok());
    served.push_back(std::move(whole));
  }
  conn->Close();
  server.Stop();

  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i], expected[i]) << "frame " << i;
  }
}

/// Hyper-Q with a wire gateway: SQL flows over the PG v3 protocol to a
/// separate backend server, the complete Figure 1 topology.
TEST(WireTopologyTest, QipcInPgOut) {
  sqldb::Database db;
  {
    kdb::Interpreter loader;
    ASSERT_TRUE(loader.EvalText("t: ([] sym:`a`b`c; v:10 20 30)").ok());
    ASSERT_TRUE(LoadQTable(&db, "t", *loader.GetGlobal("t")).ok());
  }
  pgwire::PgWireServer backend(&db, pgwire::ServerOptions{});
  ASSERT_TRUE(backend.Start(0).ok());

  auto gateway = WireGateway::Connect("127.0.0.1", backend.port(), "hq", "");
  ASSERT_TRUE(gateway.ok()) << gateway.status().ToString();

  // Drive the translator manually against the wire gateway.
  SqldbMetadata mdi(&db, nullptr);
  VariableScopes scopes(&mdi);
  QueryTranslator translator(
      &mdi, &scopes, QueryTranslator::Options{},
      [&](const std::string& sql) -> Status {
        auto r = (*gateway)->Execute(sql);
        return r.ok() ? Status::OK() : r.status();
      });
  CrossCompiler xc(&translator, gateway->get());
  auto result = xc.Process("select v from t where sym=`b");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->IsTable());
  EXPECT_EQ(result->Table().columns[0].Ints()[0], 20);
  backend.Stop();
}

}  // namespace
}  // namespace hyperq
