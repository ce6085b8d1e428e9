#include "protocol/pgwire/pgwire.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include <algorithm>

#include "common/fault.h"
#include "core/fsm.h"
#include "sqldb/eval.h"
#include "common/strings.h"

namespace hyperq {
namespace pgwire {

int32_t OidFor(sqldb::SqlType type) {
  switch (type) {
    case sqldb::SqlType::kBoolean:
      return 16;
    case sqldb::SqlType::kSmallInt:
      return 21;
    case sqldb::SqlType::kInteger:
      return 23;
    case sqldb::SqlType::kBigInt:
      return 20;
    case sqldb::SqlType::kReal:
      return 700;
    case sqldb::SqlType::kDouble:
      return 701;
    case sqldb::SqlType::kVarchar:
      return 1043;
    case sqldb::SqlType::kText:
      return 25;
    case sqldb::SqlType::kDate:
      return 1082;
    case sqldb::SqlType::kTime:
      return 1083;
    case sqldb::SqlType::kTimestamp:
      return 1114;
    case sqldb::SqlType::kNull:
      return 25;
  }
  return 25;
}

sqldb::SqlType SqlTypeForOid(int32_t oid) {
  switch (oid) {
    case 16:
      return sqldb::SqlType::kBoolean;
    case 21:
      return sqldb::SqlType::kSmallInt;
    case 23:
      return sqldb::SqlType::kInteger;
    case 20:
      return sqldb::SqlType::kBigInt;
    case 700:
      return sqldb::SqlType::kReal;
    case 701:
      return sqldb::SqlType::kDouble;
    case 1043:
      return sqldb::SqlType::kVarchar;
    case 1082:
      return sqldb::SqlType::kDate;
    case 1083:
      return sqldb::SqlType::kTime;
    case 1114:
      return sqldb::SqlType::kTimestamp;
    default:
      return sqldb::SqlType::kText;
  }
}

void WriteMessage(ByteWriter* out, char type,
                  const std::vector<uint8_t>& body) {
  out->PutU8(static_cast<uint8_t>(type));
  out->PutU32BE(static_cast<uint32_t>(body.size() + 4));
  out->PutBytes(body.data(), body.size());
}

Result<WireMessage> ReadMessage(TcpConnection* conn) {
  if (FaultHit f = CheckFault("pgwire.read");
      f.kind == FaultHit::Kind::kError) {
    return f.error;
  }
  HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> header, conn->ReadExact(5));
  WireMessage msg;
  msg.type = static_cast<char>(header[0]);
  ByteReader r(header.data() + 1, 4);
  HQ_ASSIGN_OR_RETURN(uint32_t len, r.GetU32BE());
  if (len < 4 || len > (64u << 20)) {
    return ProtocolError(StrCat("implausible PG message length ", len));
  }
  if (len > 4) {
    HQ_ASSIGN_OR_RETURN(msg.body, conn->ReadExact(len - 4));
  }
  return msg;
}

std::string ToyMd5(const std::string& input) {
  // FNV-1a based 128-bit-looking digest: reproduces the md5 *flow*, not
  // the algorithm (see header note).
  uint64_t h1 = 1469598103934665603ull;
  uint64_t h2 = 1099511628211ull * 31;
  for (unsigned char c : input) {
    h1 = (h1 ^ c) * 1099511628211ull;
    h2 = (h2 ^ (c + 17)) * 14695981039346656037ull;
  }
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(h1),
                static_cast<unsigned long long>(h2));
  return buf;
}

namespace {

std::vector<uint8_t> AuthBody(int32_t code) {
  ByteWriter w;
  w.PutI32BE(code);
  return w.Take();
}

std::vector<uint8_t> ErrorBody(const Status& status) {
  ByteWriter w;
  w.PutU8('S');
  w.PutCString("ERROR");
  w.PutU8('C');
  w.PutCString("XX000");
  w.PutU8('M');
  w.PutCString(status.ToString());
  w.PutU8(0);
  return w.Take();
}

std::vector<uint8_t> ReadyBody() {
  ByteWriter w;
  w.PutU8('I');
  return w.Take();
}

/// Fixed md5 salt (toy auth flow; see ToyMd5).
constexpr char kPgAuthSalt[] = "hqs!";

/// Minimum string-cell size worth its own iovec entry in the gather
/// write; smaller cells are cheaper to copy into the arena.
constexpr size_t kPgBorrowMinBytes = 256;

/// Gathers a PG v3 response as arena runs interleaved with borrowed
/// string-cell payloads. Framing (type bytes, lengths, counts) always
/// lives in the arena, so message lengths are patched in place with
/// PatchU32BE — no per-message body buffer and no body copy. Arena bytes
/// are recorded as offsets (the arena may reallocate) and resolved to
/// IoSlices at the end.
class ResponseSink {
 public:
  explicit ResponseSink(ByteWriter* arena) : arena_(arena) {
    arena_->Clear();
  }

  ByteWriter* arena() { return arena_; }

  /// Starts a message: type byte + length placeholder.
  void BeginMessage(char type) {
    arena_->PutU8(static_cast<uint8_t>(type));
    msg_len_off_ = arena_->size();
    arena_->PutU32BE(0);
    msg_borrowed_ = 0;
  }

  /// Patches the current message's length (everything after the type
  /// byte, borrowed payloads included).
  void EndMessage() {
    arena_->PatchU32BE(
        msg_len_off_,
        static_cast<uint32_t>(arena_->size() - msg_len_off_ +
                              msg_borrowed_));
  }

  /// Emits a slice referencing caller-owned bytes (a result string cell).
  void Borrow(const void* data, size_t len) {
    FlushArenaRun();
    parts_.push_back(Part{/*arena_offset=*/0, data, len});
    msg_borrowed_ += len;
  }

  void Finish(std::vector<IoSlice>* out) {
    FlushArenaRun();
    const uint8_t* base = arena_->data().data();
    out->clear();
    out->reserve(parts_.size());
    for (const Part& p : parts_) {
      out->push_back(IoSlice{
          p.external != nullptr ? p.external : base + p.arena_offset,
          p.len});
    }
  }

 private:
  struct Part {
    size_t arena_offset;
    const void* external;  // null = arena run
    size_t len;
  };

  void FlushArenaRun() {
    if (arena_->size() > run_start_) {
      parts_.push_back(
          Part{run_start_, nullptr, arena_->size() - run_start_});
    }
    run_start_ = arena_->size();
  }

  ByteWriter* arena_;
  size_t run_start_ = 0;
  size_t msg_len_off_ = 0;
  size_t msg_borrowed_ = 0;
  std::vector<Part> parts_;
};

/// Appends one DataRow cell (int32 BE length + text payload) straight
/// into the sink. Numeric cells render via std::to_chars / stack snprintf
/// with no std::string allocation; the text produced matches
/// Datum::ToText byte for byte. Large string cells are borrowed from the
/// result instead of copied.
void PutTextCell(ResponseSink* sink, const sqldb::Datum& d) {
  using sqldb::SqlType;
  ByteWriter* w = sink->arena();
  if (d.is_null()) {
    w->PutI32BE(-1);
    return;
  }
  switch (d.type()) {
    case SqlType::kBoolean:
      w->PutI32BE(1);
      w->PutU8(d.AsInt() ? 't' : 'f');
      return;
    case SqlType::kSmallInt:
    case SqlType::kInteger:
    case SqlType::kBigInt: {
      char buf[24];
      auto res = std::to_chars(buf, buf + sizeof(buf), d.AsInt());
      size_t len = static_cast<size_t>(res.ptr - buf);
      w->PutI32BE(static_cast<int32_t>(len));
      w->PutBytes(buf, len);
      return;
    }
    case SqlType::kReal:
    case SqlType::kDouble: {
      // %.17g matches Datum::ToText exactly (std::to_chars shortest
      // round-trip would change the wire text).
      char buf[32];
      int len = std::snprintf(buf, sizeof(buf), "%.17g", d.AsDouble());
      w->PutI32BE(len);
      w->PutBytes(buf, static_cast<size_t>(len));
      return;
    }
    case SqlType::kVarchar:
    case SqlType::kText: {
      const std::string& s = d.AsString();
      w->PutI32BE(static_cast<int32_t>(s.size()));
      if (s.size() >= kPgBorrowMinBytes) {
        sink->Borrow(s.data(), s.size());
      } else {
        w->PutString(s);
      }
      return;
    }
    default: {
      std::string text = d.ToText();  // temporal formatting
      w->PutI32BE(static_cast<int32_t>(text.size()));
      w->PutString(text);
      return;
    }
  }
}

Result<sqldb::Datum> DatumFromText(sqldb::SqlType type,
                                   const std::string& text) {
  using sqldb::Datum;
  using sqldb::SqlType;
  switch (type) {
    case SqlType::kBoolean:
      return Datum::Bool(text == "t" || text == "true" || text == "1");
    case SqlType::kSmallInt:
    case SqlType::kInteger:
    case SqlType::kBigInt:
      return Datum::Int(type, std::atoll(text.c_str()));
    case SqlType::kReal:
    case SqlType::kDouble:
      return Datum::Float(type, std::strtod(text.c_str(), nullptr));
    default: {
      Datum s = Datum::String(SqlType::kText, text);
      if (type == SqlType::kDate || type == SqlType::kTime ||
          type == SqlType::kTimestamp) {
        return sqldb::CastDatum(s, type);
      }
      return Datum::String(type, text);
    }
  }
}

/// Builds the complete reply to one simple-query message body —
/// RowDescription/DataRows/CommandComplete on success, ErrorResponse on
/// failure, always followed by ReadyForQuery — into a fresh `out`.
/// Framing lives in out->arena with lengths patched in place; large
/// string cells are borrowed from the result, which out->keepalive pins
/// until the bytes are on the wire.
void BuildQueryReply(sqldb::Database* db, sqldb::Session* session,
                     const std::vector<uint8_t>& body, Outgoing* out) {
  ByteReader reader(body);
  Result<std::string> sql = reader.GetCString();
  Status error = Status::OK();
  std::shared_ptr<sqldb::QueryResult> result;
  if (!sql.ok()) {
    error = sql.status();
  } else {
    Result<sqldb::QueryResult> res = db->Execute(session, *sql);
    if (!res.ok()) {
      error = res.status();
    } else {
      result = std::make_shared<sqldb::QueryResult>(std::move(*res));
    }
  }

  ByteWriter& arena = out->arena;
  if (!error.ok()) {
    arena.Clear();
    WriteMessage(&arena, kMsgErrorResponse, ErrorBody(error));
    WriteMessage(&arena, kMsgReadyForQuery, ReadyBody());
    out->slices.push_back(IoSlice{arena.data().data(), arena.size()});
    return;
  }

  // The whole response is framed in the arena with lengths patched in
  // place, large string cells borrowed from `result`, and reaches the
  // socket in one gather write.
  ResponseSink sink(&arena);
  if (result->has_rows) {
    sink.BeginMessage(kMsgRowDescription);
    arena.PutI16BE(static_cast<int16_t>(result->columns.size()));
    for (const auto& c : result->columns) {
      arena.PutCString(c.name);
      arena.PutI32BE(0);
      arena.PutI16BE(0);
      arena.PutI32BE(OidFor(c.type));
      arena.PutI16BE(-1);
      arena.PutI32BE(-1);
      arena.PutI16BE(0);  // text format
    }
    sink.EndMessage();
    for (const auto& row : result->rows) {
      sink.BeginMessage(kMsgDataRow);
      arena.PutI16BE(static_cast<int16_t>(row.size()));
      for (const auto& d : row) PutTextCell(&sink, d);
      sink.EndMessage();
    }
  }
  sink.BeginMessage(kMsgCommandComplete);
  arena.PutCString(result->command_tag);
  sink.EndMessage();
  sink.BeginMessage(kMsgReadyForQuery);
  arena.PutU8('I');
  sink.EndMessage();
  sink.Finish(&out->slices);
  out->keepalive = std::move(result);  // pins the borrowed string cells
}

}  // namespace

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Result<PgWireClient> PgWireClient::Connect(const std::string& host,
                                           uint16_t port,
                                           const std::string& user,
                                           const std::string& password,
                                           const std::string& database) {
  HQ_ASSIGN_OR_RETURN(TcpConnection conn, TcpConnection::Connect(host, port));

  // Startup message: length + protocol + parameters (no type byte).
  ByteWriter body;
  body.PutI32BE(kProtocolVersion3);
  body.PutCString("user");
  body.PutCString(user);
  body.PutCString("database");
  body.PutCString(database);
  body.PutU8(0);
  ByteWriter startup;
  startup.PutU32BE(static_cast<uint32_t>(body.size() + 4));
  startup.PutBytes(body.data().data(), body.size());
  HQ_RETURN_IF_ERROR(conn.WriteAll(startup.data()));

  PgWireClient client(std::move(conn));

  // Authentication loop.
  while (true) {
    HQ_ASSIGN_OR_RETURN(WireMessage msg, ReadMessage(&client.conn_));
    if (msg.type == kMsgErrorResponse) {
      return AuthError("backend rejected startup");
    }
    if (msg.type != kMsgAuthentication) {
      return ProtocolError(StrCat("expected authentication message, got '",
                                  std::string(1, msg.type), "'"));
    }
    ByteReader r(msg.body);
    HQ_ASSIGN_OR_RETURN(int32_t code, r.GetI32BE());
    if (code == 0) break;  // AuthenticationOk
    if (code == 3) {
      ByteWriter pw;
      pw.PutCString(password);
      ByteWriter out;
      WriteMessage(&out, kMsgPassword, pw.Take());
      HQ_RETURN_IF_ERROR(client.conn_.WriteAll(out.data()));
      continue;
    }
    if (code == 5) {
      HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> salt, r.GetBytes(4));
      std::string salt_str(salt.begin(), salt.end());
      std::string digest =
          "md5" + ToyMd5(ToyMd5(password + user) + salt_str);
      ByteWriter pw;
      pw.PutCString(digest);
      ByteWriter out;
      WriteMessage(&out, kMsgPassword, pw.Take());
      HQ_RETURN_IF_ERROR(client.conn_.WriteAll(out.data()));
      continue;
    }
    return ProtocolError(StrCat("unsupported authentication code ", code));
  }

  // Drain ParameterStatus messages until ReadyForQuery.
  while (true) {
    HQ_ASSIGN_OR_RETURN(WireMessage msg, ReadMessage(&client.conn_));
    if (msg.type == kMsgReadyForQuery) break;
    if (msg.type == kMsgErrorResponse) {
      return AuthError("backend error during startup");
    }
  }
  return client;
}

Result<sqldb::QueryResult> PgWireClient::Query(const std::string& sql) {
  ByteWriter q;
  q.PutCString(sql);
  ByteWriter out;
  WriteMessage(&out, kMsgQuery, q.Take());
  HQ_RETURN_IF_ERROR(conn_.WriteAll(out.data()));

  sqldb::QueryResult result;
  Status error = Status::OK();
  // Buffer the row-oriented stream until ReadyForQuery (§4.2: Hyper-Q
  // buffers the entire result set before pivoting to QIPC).
  while (true) {
    HQ_ASSIGN_OR_RETURN(WireMessage msg, ReadMessage(&conn_));
    switch (msg.type) {
      case kMsgRowDescription: {
        ByteReader r(msg.body);
        HQ_ASSIGN_OR_RETURN(int16_t nfields, r.GetI16BE());
        result.columns.clear();
        result.has_rows = true;
        for (int i = 0; i < nfields; ++i) {
          sqldb::TableColumn col;
          HQ_ASSIGN_OR_RETURN(col.name, r.GetCString());
          HQ_RETURN_IF_ERROR(r.GetI32BE().status());  // table oid
          HQ_RETURN_IF_ERROR(r.GetI16BE().status());  // attnum
          HQ_ASSIGN_OR_RETURN(int32_t oid, r.GetI32BE());
          HQ_RETURN_IF_ERROR(r.GetI16BE().status());  // typlen
          HQ_RETURN_IF_ERROR(r.GetI32BE().status());  // typmod
          HQ_RETURN_IF_ERROR(r.GetI16BE().status());  // format
          col.type = SqlTypeForOid(oid);
          result.columns.push_back(std::move(col));
        }
        break;
      }
      case kMsgDataRow: {
        ByteReader r(msg.body);
        HQ_ASSIGN_OR_RETURN(int16_t nfields, r.GetI16BE());
        std::vector<sqldb::Datum> row;
        row.reserve(nfields);
        for (int i = 0; i < nfields; ++i) {
          HQ_ASSIGN_OR_RETURN(int32_t len, r.GetI32BE());
          if (len < 0) {
            row.push_back(sqldb::Datum::Null());
            continue;
          }
          HQ_ASSIGN_OR_RETURN(std::string text, r.GetString(len));
          HQ_ASSIGN_OR_RETURN(
              sqldb::Datum d,
              DatumFromText(result.columns[i].type, text));
          row.push_back(std::move(d));
        }
        result.rows.push_back(std::move(row));
        break;
      }
      case kMsgCommandComplete: {
        ByteReader r(msg.body);
        HQ_ASSIGN_OR_RETURN(result.command_tag, r.GetCString());
        break;
      }
      case kMsgErrorResponse: {
        // Extract the 'M' field.
        ByteReader r(msg.body);
        std::string message = "backend error";
        while (true) {
          Result<uint8_t> key = r.GetU8();
          if (!key.ok() || *key == 0) break;
          Result<std::string> value = r.GetCString();
          if (!value.ok()) break;
          if (*key == 'M') message = *value;
        }
        error = ExecutionError(message);
        break;
      }
      case kMsgReadyForQuery:
        if (!error.ok()) return error;
        return result;
      default:
        break;  // ignore ParameterStatus / notices
    }
  }
}

void PgWireClient::Close() {
  ByteWriter out;
  WriteMessage(&out, kMsgTerminate, {});
  (void)conn_.WriteAll(out.data());
  conn_.Close();
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------


/// Per-socket PG v3 protocol state machine on an event loop, the pgwire
/// counterpart of the QIPC QipcEventConn (§3.4: each protocol translator
/// maintains its state as an FSM). States follow the wire phases —
/// startup → password-wait → ready → execute → respond — over a shared
/// immutable transition table.
class PgWireServer::PgEventConn final : public ServerConn {
 public:
  enum class St { kStartup, kPasswordWait, kReady, kExecute, kRespond };
  enum class Ev {
    kAuthRequested,
    kAuthGranted,
    kQueryReceived,
    kReplyReady,
    kReplyDrained,
  };

  PgEventConn(PgWireServer* server, EventLoop* loop, TcpConnection conn)
      : ServerConn(&server->events_, loop, std::move(conn)),
        server_(server),
        fsm_(St::kStartup, &Table()) {}

 protected:
  void OnData() override { Pump(); }

  void OnWriteDrained() override {
    if (close_after_reply_) {
      Close();
      return;
    }
    if (fsm_.state() != St::kRespond) return;  // handshake frames drained
    (void)fsm_.Fire(Ev::kReplyDrained);
    if (draining()) {
      Close();
      return;
    }
    ResumeReads();
    Pump();  // pipelined queries may already be buffered
  }

 private:
  using Table_t = TransitionTable<St, Ev>;

  static const Table_t& Table() {
    static const Table_t* t = [] {
      auto* table = new Table_t("pgwire-conn");
      table->Add(St::kStartup, Ev::kAuthRequested, St::kPasswordWait);
      table->Add(St::kStartup, Ev::kAuthGranted, St::kReady);
      table->Add(St::kPasswordWait, Ev::kAuthGranted, St::kReady);
      table->Add(St::kReady, Ev::kQueryReceived, St::kExecute);
      table->Add(St::kExecute, Ev::kReplyReady, St::kRespond);
      table->Add(St::kRespond, Ev::kReplyDrained, St::kReady);
      return table;
    }();
    return *t;
  }

  /// Drives the state machine over whatever is buffered; pipelined
  /// queries decode straight out of rbuf_.
  void Pump() {
    while (!closed()) {
      switch (fsm_.state()) {
        case St::kStartup: {
          size_t avail = rbuf_.size() - rpos_;
          if (avail < 4) return;
          ByteReader lr(rbuf_.data() + rpos_, 4);
          uint32_t len = *lr.GetU32BE();
          if (len < 8 || len > (1u << 20)) {  // implausible startup length
            Close();
            return;
          }
          if (avail < len) return;
          std::vector<uint8_t> body(rbuf_.data() + rpos_ + 4,
                                    rbuf_.data() + rpos_ + len);
          ConsumeTo(rpos_ + len);
          if (!ProcessStartup(body)) return;
          break;
        }
        case St::kPasswordWait: {
          std::optional<WireMessage> msg;
          if (!ExtractMessage(&msg)) return;
          if (!msg.has_value()) return;  // incomplete
          if (!ProcessPassword(*msg)) return;
          break;
        }
        case St::kReady: {
          std::optional<WireMessage> msg;
          if (!ExtractMessage(&msg)) return;
          if (!msg.has_value()) return;  // incomplete
          if (msg->type == kMsgTerminate) {
            Close();
            return;
          }
          if (msg->type != kMsgQuery) break;  // ignore
          (void)fsm_.Fire(Ev::kQueryReceived);
          Dispatch(std::move(msg->body));
          return;  // reads paused until the reply is on its way
        }
        case St::kExecute:
        case St::kRespond:
          // Buffered pipelined bytes wait for the in-flight query.
          return;
      }
    }
  }

  /// Extracts one complete typed message from rbuf_ if available.
  /// Returns false when the connection was closed (framing violation or
  /// an injected pgwire.read fault, checked once per message).
  bool ExtractMessage(std::optional<WireMessage>* out) {
    size_t avail = rbuf_.size() - rpos_;
    if (avail < 5) {
      if (avail == 0) ConsumeTo(rpos_);  // allow shrink when empty
      return true;
    }
    const uint8_t* base = rbuf_.data() + rpos_;
    ByteReader r(base + 1, 4);
    uint32_t len = *r.GetU32BE();
    if (len < 4 || len > (64u << 20)) {
      Close();  // implausible PG message length
      return false;
    }
    size_t total = 1 + static_cast<size_t>(len);
    if (avail < total) return true;
    if (FaultHit f = CheckFault("pgwire.read");
        f.kind == FaultHit::Kind::kError) {
      Close();
      return false;
    }
    WireMessage msg;
    msg.type = static_cast<char>(base[0]);
    msg.body.assign(base + 5, base + total);
    ConsumeTo(rpos_ + total);
    *out = std::move(msg);
    return true;
  }

  /// Startup packet: protocol check, user extraction, auth challenge (or
  /// immediate grant under trust).
  bool ProcessStartup(const std::vector<uint8_t>& body) {
    ByteReader r(body);
    Result<int32_t> protocol = r.GetI32BE();
    if (!protocol.ok() || *protocol != kProtocolVersion3) {
      Close();
      return false;
    }
    while (!r.AtEnd()) {
      Result<std::string> key = r.GetCString();
      if (!key.ok() || key->empty()) break;
      Result<std::string> value = r.GetCString();
      if (!value.ok()) {
        Close();
        return false;
      }
      if (*key == "user") user_ = *value;
    }
    const ServerOptions& opts = server_->options_;
    if (opts.auth == AuthMode::kCleartext) {
      ByteWriter w;
      WriteMessage(&w, kMsgAuthentication, AuthBody(3));
      SendOwned(w.Take());
      if (!closed()) (void)fsm_.Fire(Ev::kAuthRequested);
      return !closed();
    }
    if (opts.auth == AuthMode::kMd5) {
      ByteWriter b;
      b.PutI32BE(5);
      b.PutString(kPgAuthSalt);
      ByteWriter w;
      WriteMessage(&w, kMsgAuthentication, b.Take());
      SendOwned(w.Take());
      if (!closed()) (void)fsm_.Fire(Ev::kAuthRequested);
      return !closed();
    }
    GrantAccess();  // trust
    return !closed();
  }

  bool ProcessPassword(const WireMessage& pw) {
    if (pw.type != kMsgPassword) {
      Close();
      return false;
    }
    ByteReader pr(pw.body);
    Result<std::string> given = pr.GetCString();
    if (!given.ok()) {
      Close();
      return false;
    }
    const ServerOptions& opts = server_->options_;
    bool ok;
    if (opts.auth == AuthMode::kCleartext) {
      ok = *given == opts.password && user_ == opts.user;
    } else {
      std::string expect =
          "md5" +
          ToyMd5(ToyMd5(opts.password + opts.user) + kPgAuthSalt);
      ok = *given == expect;
    }
    if (!ok) {
      ByteWriter w;
      WriteMessage(&w, kMsgErrorResponse,
                   ErrorBody(AuthError("password authentication failed")));
      close_after_reply_ = true;
      PauseReads();
      SendOwned(w.Take());
      return false;
    }
    GrantAccess();
    return !closed();
  }

  /// AuthenticationOk + ParameterStatus + ReadyForQuery.
  void GrantAccess() {
    ByteWriter w;
    WriteMessage(&w, kMsgAuthentication, AuthBody(0));
    ByteWriter ps;
    ps.PutCString("server_version");
    ps.PutCString("9.2-hyperq-mini");
    WriteMessage(&w, kMsgParameterStatus, ps.Take());
    WriteMessage(&w, kMsgReadyForQuery, ReadyBody());
    SendOwned(w.Take());
    if (!closed()) (void)fsm_.Fire(Ev::kAuthGranted);
  }

  void SendOwned(std::vector<uint8_t> bytes) {
    Outgoing out;
    out.owned = std::move(bytes);
    out.slices.push_back(IoSlice{out.owned.data(), out.owned.size()});
    Send(std::move(out));
  }

  /// Hands the query to the exec pool (strictly one in flight per
  /// connection — the sqldb session is single-threaded) and pauses
  /// socket reads; pipelined queries accumulate in rbuf_ meanwhile.
  void Dispatch(std::vector<uint8_t> body) {
    executing_ = true;
    PauseReads();
    if (!session_) {
      session_ = std::shared_ptr<sqldb::Session>(server_->db_->CreateSession());
    }
    auto self = std::static_pointer_cast<PgEventConn>(shared_from_this());
    bool accepted = Execute(
        [self, db = server_->db_, session = session_,
         body = std::move(body)] {
          auto out = std::make_shared<Outgoing>();
          BuildQueryReply(db, session.get(), body, out.get());
          self->loop()->Post(
              [self, out] { self->OnQueryDone(std::move(*out)); });
        });
    if (!accepted) {  // server stopping; no more replies will flow
      executing_ = false;
      Close();
    }
  }

  /// Completion, back on the loop thread.
  void OnQueryDone(Outgoing out) {
    executing_ = false;
    if (closed()) return;
    (void)fsm_.Fire(Ev::kReplyReady);
    // An egress fault behaves as the transport dying mid-response
    // (optionally after a short prefix), never patched over with a second
    // frame on a stream whose position is unknown.
    if (FaultHit f = CheckFault("pgwire.write");
        f.kind != FaultHit::Kind::kNone) {
      if (f.kind == FaultHit::Kind::kShortWrite && !out.slices.empty()) {
        size_t n = std::min(f.short_len, out.slices[0].len);
        const uint8_t* p = static_cast<const uint8_t*>(out.slices[0].data);
        Outgoing prefix;
        prefix.owned.assign(p, p + n);
        prefix.slices.push_back(IoSlice{prefix.owned.data(), n});
        close_after_reply_ = true;
        Send(std::move(prefix));
        return;
      }
      Close();
      return;
    }
    Send(std::move(out));  // OnWriteDrained advances the machine
  }

  PgWireServer* server_;
  Fsm<St, Ev> fsm_;
  std::shared_ptr<sqldb::Session> session_;
  std::string user_;
  bool close_after_reply_ = false;
};

PgWireServer::PgWireServer(sqldb::Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      events_("pgwire",
              EventServer::Options{options_.event_loop_threads,
                                   options_.exec_threads,
                                   options_.max_connections,
                                   options_.drain_timeout_ms},
              [this](EventLoop* loop, TcpConnection conn) {
                return std::make_shared<PgEventConn>(this, loop,
                                                     std::move(conn));
              }) {}

}  // namespace pgwire
}  // namespace hyperq
