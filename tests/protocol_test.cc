#include <gtest/gtest.h>

#include <string_view>

#include "protocol/pgwire/pgwire.h"
#include "protocol/qipc/qipc.h"
#include "qval/temporal.h"

namespace hyperq {
namespace {

QValue RoundTrip(const QValue& v) {
  auto encoded = qipc::EncodeMessage(v, qipc::MsgType::kResponse);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  if (!encoded.ok()) return QValue();
  auto decoded = qipc::DecodeMessage(*encoded);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return QValue();
  EXPECT_FALSE(decoded->is_error);
  return decoded->value;
}

TEST(QipcTest, AtomsRoundTrip) {
  EXPECT_TRUE(QValue::Match(RoundTrip(QValue::Long(42)), QValue::Long(42)));
  EXPECT_TRUE(QValue::Match(RoundTrip(QValue::Bool(true)), QValue::Bool(true)));
  EXPECT_TRUE(QValue::Match(RoundTrip(QValue::Int(7)), QValue::Int(7)));
  EXPECT_TRUE(QValue::Match(RoundTrip(QValue::Short(-3)), QValue::Short(-3)));
  EXPECT_TRUE(
      QValue::Match(RoundTrip(QValue::Float(2.5)), QValue::Float(2.5)));
  EXPECT_TRUE(
      QValue::Match(RoundTrip(QValue::Sym("GOOG")), QValue::Sym("GOOG")));
  EXPECT_TRUE(QValue::Match(RoundTrip(QValue::Char('x')), QValue::Char('x')));
}

TEST(QipcTest, TemporalAtomsRoundTrip) {
  QValue d = QValue::Date(YmdToQDays(2016, 6, 26));
  EXPECT_TRUE(QValue::Match(RoundTrip(d), d));
  QValue t = QValue::Time(34200000);
  EXPECT_TRUE(QValue::Match(RoundTrip(t), t));
  QValue ts = QValue::Timestamp(123456789123456789LL);
  EXPECT_TRUE(QValue::Match(RoundTrip(ts), ts));
}

TEST(QipcTest, NullsRoundTripAcrossWidths) {
  // Narrow nulls use width-specific sentinels on the wire.
  for (QType t : {QType::kLong, QType::kInt, QType::kShort, QType::kFloat,
                  QType::kSymbol, QType::kDate, QType::kTime}) {
    QValue null = QValue::NullOf(t);
    EXPECT_TRUE(QValue::Match(RoundTrip(null), null)) << QTypeName(t);
  }
}

TEST(QipcTest, ListsRoundTrip) {
  QValue longs = QValue::IntList(QType::kLong, {1, kNullLong, 3});
  EXPECT_TRUE(QValue::Match(RoundTrip(longs), longs));
  QValue syms = QValue::Syms({"a", "", "c"});
  EXPECT_TRUE(QValue::Match(RoundTrip(syms), syms));
  QValue chars = QValue::Chars("select from trades");
  EXPECT_TRUE(QValue::Match(RoundTrip(chars), chars));
  QValue mixed = QValue::Mixed({QValue::Long(1), QValue::Sym("x")});
  EXPECT_TRUE(QValue::Match(RoundTrip(mixed), mixed));
  QValue bools = QValue::IntList(QType::kBool, {1, 0, 1});
  EXPECT_TRUE(QValue::Match(RoundTrip(bools), bools));
}

TEST(QipcTest, TableRoundTripsColumnOriented) {
  // Figure 5: a whole table travels as a single column-oriented message.
  QValue table = QValue::MakeTableUnchecked(
      {"c1", "c2"}, {QValue::IntList(QType::kLong, {1, 2}),
                     QValue::IntList(QType::kLong, {1, 2})});
  EXPECT_TRUE(QValue::Match(RoundTrip(table), table));
}

TEST(QipcTest, DictAndKeyedTableRoundTrip) {
  QValue dict = QValue::MakeDictUnchecked(
      QValue::Syms({"a", "b"}), QValue::IntList(QType::kLong, {1, 2}));
  EXPECT_TRUE(QValue::Match(RoundTrip(dict), dict));
  QValue kt = QValue::MakeDictUnchecked(
      QValue::MakeTableUnchecked({"sym"}, {QValue::Syms({"a"})}),
      QValue::MakeTableUnchecked(
          {"px"}, {QValue::FloatList(QType::kFloat, {1.5})}));
  EXPECT_TRUE(QValue::Match(RoundTrip(kt), kt));
}

TEST(QipcTest, GenericNullRoundTrip) {
  EXPECT_TRUE(QValue::Match(RoundTrip(QValue()), QValue()));
}

TEST(QipcTest, ErrorMessageEncoding) {
  auto bytes = qipc::EncodeError("type", qipc::MsgType::kResponse);
  auto decoded = qipc::DecodeMessage(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->is_error);
  EXPECT_EQ(decoded->error, "type");
}

TEST(QipcTest, HeaderCarriesLength) {
  auto bytes = qipc::EncodeMessage(QValue::Long(1), qipc::MsgType::kSync);
  ASSERT_TRUE(bytes.ok());
  auto len = qipc::PeekMessageLength(bytes->data());
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, bytes->size());
}

TEST(QipcTest, HandshakeRoundTrip) {
  auto bytes = qipc::EncodeHandshake("trader", "s3cret", 3);
  auto hs = qipc::DecodeHandshake(bytes);
  ASSERT_TRUE(hs.ok());
  EXPECT_EQ(hs->user, "trader");
  EXPECT_EQ(hs->password, "s3cret");
  EXPECT_EQ(hs->version, 3);
}

TEST(QipcTest, TruncatedMessageIsProtocolError) {
  auto bytes = qipc::EncodeMessage(QValue::Long(1), qipc::MsgType::kSync);
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> cut(bytes->begin(), bytes->end() - 2);
  EXPECT_FALSE(qipc::DecodeMessage(cut).ok());
}

TEST(PgWireTest, OidMappingIsInverse) {
  using sqldb::SqlType;
  for (SqlType t : {SqlType::kBoolean, SqlType::kSmallInt, SqlType::kInteger,
                    SqlType::kBigInt, SqlType::kReal, SqlType::kDouble,
                    SqlType::kVarchar, SqlType::kDate, SqlType::kTime,
                    SqlType::kTimestamp}) {
    EXPECT_EQ(pgwire::SqlTypeForOid(pgwire::OidFor(t)), t);
  }
}

TEST(PgWireTest, MessageFraming) {
  ByteWriter w;
  ByteWriter body;
  body.PutCString("SELECT 1");
  pgwire::WriteMessage(&w, pgwire::kMsgQuery, body.Take());
  const auto& bytes = w.data();
  EXPECT_EQ(bytes[0], 'Q');
  // Length covers itself + body (4 + 9).
  EXPECT_EQ(bytes[4], 13);
}

/// Full server round trip over real TCP: startup, auth, query, results.
TEST(PgWireServerTest, EndToEndQueryOverWire) {
  sqldb::Database db;
  {
    auto session = db.CreateSession();
    ASSERT_TRUE(db.Execute(session.get(),
                           "CREATE TABLE t (a bigint, b varchar)")
                    .ok());
    ASSERT_TRUE(db.Execute(session.get(),
                           "INSERT INTO t VALUES (1,'x'), (2,'y'), "
                           "(3, NULL)")
                    .ok());
  }
  pgwire::PgWireServer server(&db, pgwire::ServerOptions());
  ASSERT_TRUE(server.Start(0).ok());

  auto client = pgwire::PgWireClient::Connect("127.0.0.1", server.port(),
                                              "hyperq", "");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = client->Query("SELECT a, b FROM t ORDER BY a");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 1);
  EXPECT_EQ(result->rows[1][1].AsString(), "y");
  EXPECT_TRUE(result->rows[2][1].is_null());
  EXPECT_EQ(result->command_tag, "SELECT 3");

  // Errors surface through ErrorResponse and the connection stays usable.
  auto bad = client->Query("SELECT nope FROM t");
  EXPECT_FALSE(bad.ok());
  auto again = client->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows[0][0].AsInt(), 3);

  client->Close();
  server.Stop();
}

TEST(PgWireServerTest, CleartextAuthFlow) {
  sqldb::Database db;
  pgwire::ServerOptions opts;
  opts.auth = pgwire::AuthMode::kCleartext;
  opts.user = "gp";
  opts.password = "secret";
  pgwire::PgWireServer server(&db, opts);
  ASSERT_TRUE(server.Start(0).ok());

  auto good =
      pgwire::PgWireClient::Connect("127.0.0.1", server.port(), "gp",
                                    "secret");
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  auto bad = pgwire::PgWireClient::Connect("127.0.0.1", server.port(), "gp",
                                           "wrong");
  EXPECT_FALSE(bad.ok());
  server.Stop();
}

TEST(PgWireServerTest, Md5AuthFlow) {
  sqldb::Database db;
  pgwire::ServerOptions opts;
  opts.auth = pgwire::AuthMode::kMd5;
  opts.user = "gp";
  opts.password = "secret";
  pgwire::PgWireServer server(&db, opts);
  ASSERT_TRUE(server.Start(0).ok());
  auto good =
      pgwire::PgWireClient::Connect("127.0.0.1", server.port(), "gp",
                                    "secret");
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  server.Stop();
}

/// The server must put exactly the recorded bytes on the wire: a raw
/// byte-level PG client runs a startup + query sequence and compares the
/// full response stream, handshake included, with a golden recording.
TEST(PgWireParityTest, ResponsesMatchRecordedStream) {
  using namespace std::string_view_literals;
  constexpr std::string_view kRecorded =
      // Trust startup: AuthenticationOk, ParameterStatus, ReadyForQuery.
      "R\x00\x00\x00\x08\x00\x00\x00\x00"
      "S\x00\x00\x00#server_version\x00\x39.2-hyperq-mini\x00"
      "Z\x00\x00\x00\x05I"
      // SELECT a, b FROM t ORDER BY a
      "T\x00\x00\x00.\x00\x02\x61\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x14\xff\xff\xff\xff\xff\xff\x00\x00\x62\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x04\x13\xff\xff\xff\xff\xff\xff\x00\x00"
      "D\x00\x00\x00\x10\x00\x02\x00\x00\x00\x01\x31\x00\x00\x00\x01x"
      "D\x00\x00\x00\x10\x00\x02\x00\x00\x00\x01\x32\x00\x00\x00\x01y"
      "D\x00\x00\x00\x0f\x00\x02\x00\x00\x00\x01\x33\xff\xff\xff\xff"
      "C\x00\x00\x00\x0dSELECT 3\x00"
      "Z\x00\x00\x00\x05I"
      // SELECT COUNT(*) FROM t
      "T\x00\x00\x00\x1e\x00\x01\x63ount\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x14\xff\xff\xff\xff\xff\xff\x00\x00"
      "D\x00\x00\x00\x0b\x00\x01\x00\x00\x00\x01\x33"
      "C\x00\x00\x00\x0dSELECT 1\x00"
      "Z\x00\x00\x00\x05I"
      // SELECT nope FROM t: ErrorResponse
      "E\x00\x00\x00YSERROR\x00\x43XX000\x00"
      "MBindError: column \"nope\" does not exist; available columns: "
      "t.a, t.b\x00\x00"
      "Z\x00\x00\x00\x05I"
      // SELECT b FROM t WHERE a = 2
      "T\x00\x00\x00\x1a\x00\x01\x62\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x04\x13\xff\xff\xff\xff\xff\xff\x00\x00"
      "D\x00\x00\x00\x0b\x00\x01\x00\x00\x00\x01y"
      "C\x00\x00\x00\x0dSELECT 1\x00"
      "Z\x00\x00\x00\x05I"sv;
  const std::vector<std::string> queries = {
      "SELECT a, b FROM t ORDER BY a",
      "SELECT COUNT(*) FROM t",
      "SELECT nope FROM t",  // ErrorResponse frame
      "SELECT b FROM t WHERE a = 2",
  };

  // Reads one typed message (5-byte header + body) verbatim.
  auto read_frame = [](TcpConnection* conn,
                       std::vector<uint8_t>* out) -> bool {
    Result<std::vector<uint8_t>> header = conn->ReadExact(5);
    if (!header.ok()) return false;
    ByteReader r(header->data() + 1, 4);
    Result<uint32_t> len = r.GetU32BE();
    if (!len.ok() || *len < 4 || *len > (64u << 20)) return false;
    out->insert(out->end(), header->begin(), header->end());
    if (*len > 4) {
      Result<std::vector<uint8_t>> body = conn->ReadExact(*len - 4);
      if (!body.ok()) return false;
      out->insert(out->end(), body->begin(), body->end());
    }
    return true;
  };

  auto serve_raw = [&](std::vector<uint8_t>* stream) {
    sqldb::Database db;
    {
      auto session = db.CreateSession();
      ASSERT_TRUE(db.Execute(session.get(),
                             "CREATE TABLE t (a bigint, b varchar)")
                      .ok());
      ASSERT_TRUE(db.Execute(session.get(),
                             "INSERT INTO t VALUES (1,'x'), (2,'y'), "
                             "(3, NULL)")
                      .ok());
    }
    pgwire::PgWireServer server(&db, pgwire::ServerOptions());
    ASSERT_TRUE(server.Start(0).ok());

    Result<TcpConnection> conn =
        TcpConnection::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok());
    // Startup message (no type byte).
    ByteWriter body;
    body.PutI32BE(pgwire::kProtocolVersion3);
    body.PutCString("user");
    body.PutCString("hyperq");
    body.PutCString("database");
    body.PutCString("hyperq");
    body.PutU8(0);
    ByteWriter startup;
    startup.PutU32BE(static_cast<uint32_t>(body.size() + 4));
    startup.PutBytes(body.data().data(), body.size());
    ASSERT_TRUE(conn->WriteAll(startup.data()).ok());
    // Trust auth: AuthenticationOk, ParameterStatus, ReadyForQuery.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(read_frame(&*conn, stream)) << "startup frame " << i;
    }
    for (const std::string& q : queries) {
      ByteWriter qb;
      qb.PutCString(q);
      ByteWriter msg;
      pgwire::WriteMessage(&msg, pgwire::kMsgQuery, qb.Take());
      ASSERT_TRUE(conn->WriteAll(msg.data()).ok());
      // Read raw frames until ReadyForQuery closes the cycle.
      while (true) {
        size_t frame_start = stream->size();
        ASSERT_TRUE(read_frame(&*conn, stream)) << q;
        if ((*stream)[frame_start] ==
            static_cast<uint8_t>(pgwire::kMsgReadyForQuery)) {
          break;
        }
      }
    }
    conn->Close();
    server.Stop();
  };

  std::vector<uint8_t> served;
  serve_raw(&served);
  EXPECT_EQ(std::string_view(reinterpret_cast<const char*>(served.data()),
                             served.size()),
            kRecorded);
}

}  // namespace
}  // namespace hyperq
