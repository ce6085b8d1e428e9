#include "core/endpoint.h"

#include <chrono>
#include <cstring>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "core/fsm.h"
#include "core/live_store.h"
#include "protocol/qipc/compress.h"

namespace hyperq {

namespace {

struct ServerMetrics {
  Gauge* connections_idle;
  Counter* handshake_failures;
  Counter* read_timeouts;
  Counter* bytes_in;
  Counter* bytes_out;
  Counter* compress_fallbacks;
  Counter* busy_rejections;
  Counter* deadline_armed;
  Counter* deadline_timeouts;
  LatencyHistogram* request_us;

  static ServerMetrics& Get() {
    static ServerMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new ServerMetrics{
          r.GetGauge("server.connections_idle"),
          r.GetCounter("server.handshake_failures"),
          r.GetCounter("server.read_timeouts"),
          r.GetCounter("server.bytes_in"),
          r.GetCounter("server.bytes_out"),
          r.GetCounter("server.compress_fallbacks"),
          r.GetCounter("server.busy_rejections"),
          r.GetCounter("deadline.armed_queries"),
          r.GetCounter("deadline.timeouts"),
          r.GetHistogram("server.request_us")};
    }();
    return *m;
  }
};

/// Egress-path metrics: how responses leave the process. encode_us is the
/// Relation→wire serialization alone; writev_calls vs messages_out shows
/// how often scatter replies needed more than one sendmsg batch;
/// compress_{in,out}_bytes give the achieved compression ratio.
struct WireMetrics {
  LatencyHistogram* encode_us;
  Counter* bytes_out;
  Counter* messages_out;
  Counter* writev_calls;
  Counter* scatter_slices;
  Counter* compress_in_bytes;
  Counter* compress_out_bytes;

  static WireMetrics& Get() {
    static WireMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new WireMetrics{
          r.GetHistogram("wire.encode_us"),
          r.GetCounter("wire.bytes_out"),
          r.GetCounter("wire.messages_out"),
          r.GetCounter("wire.writev_calls"),
          r.GetCounter("wire.scatter_slices"),
          r.GetCounter("wire.compress_in_bytes"),
          r.GetCounter("wire.compress_out_bytes")};
    }();
    return *m;
  }
};

/// Structured wire errors: a q client sees `'timeout` / `'busy` symbols it
/// can branch on instead of a free-form diagnostic string. Everything else
/// keeps the full status text.
std::string WireErrorText(const Status& s) {
  if (s.code() == StatusCode::kTimeout) return "timeout";
  if (s.code() == StatusCode::kUnavailable) return "busy";
  return s.ToString();
}

/// A tickerplant publish frame, by the kdb+ convention: the mixed list
/// (`upd; `table; data). The first element arrives as a symbol from real
/// q publishers (or a char list from casual tooling), the second names the
/// live table, the third is the batch (table value or column list).
bool IsUpdMessage(const QValue& v) {
  if (!v.IsMixedList() || v.Items().size() != 3) return false;
  const QValue& fn = v.Items()[0];
  const bool named_upd =
      (fn.type() == QType::kSymbol && fn.is_atom() && fn.AsSym() == "upd") ||
      (fn.type() == QType::kChar && !fn.is_atom() && fn.CharsView() == "upd");
  return named_upd && v.Items()[1].type() == QType::kSymbol &&
         v.Items()[1].is_atom();
}

constexpr size_t kMaxHandshakeBytes = 4096;
constexpr uint32_t kMaxFrameBytes = 256u << 20;

uint32_t PlainLengthOfCompressed(const std::vector<uint8_t>& msg) {
  uint32_t v = 0;
  for (int k = 0; k < 4; ++k) v |= static_cast<uint32_t>(msg[8 + k]) << (8 * k);
  return v;
}

/// Records metrics for a fully written reply.
void RecordReplySent(size_t reply_bytes,
                     std::chrono::steady_clock::time_point request_start) {
  ServerMetrics& metrics = ServerMetrics::Get();
  WireMetrics& wire = WireMetrics::Get();
  metrics.bytes_out->Increment(reply_bytes);
  wire.bytes_out->Increment(reply_bytes);
  wire.messages_out->Increment();
  auto end = std::chrono::steady_clock::now();
  metrics.request_us->Record(
      std::chrono::duration<double, std::micro>(end - request_start)
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Request pipeline
// ---------------------------------------------------------------------------

std::unique_ptr<HyperQSession> HyperQServer::MakeSession() {
  // One Hyper-Q session per connection (its own temp-table namespace and
  // variable scopes), over the configured gateway — direct by default,
  // the scatter-gather coordinator when a factory is installed.
  return options_.gateway_factory
             ? std::make_unique<HyperQSession>(options_.gateway_factory(),
                                               options_.session)
             : std::make_unique<HyperQSession>(backend_, options_.session);
}

void HyperQServer::AdjustIdle(int delta) {
  int now = idle_count_.fetch_add(delta, std::memory_order_acq_rel) + delta;
  // Set() rather than Add() so a mid-flight .hyperq.resetStats[] desyncs
  // the gauge only until the next transition instead of forever.
  ServerMetrics::Get().connections_idle->Set(now);
}

bool HyperQServer::ShouldShed() {
  // Load shedding against *dispatched* queries — queued on the exec pool
  // or executing — so queueing stays bounded. The caller must pair this
  // with DoneExecuting() when the query finishes.
  if (options_.max_inflight_queries <= 0) return false;
  int prior = inflight_queries_.fetch_add(1, std::memory_order_acq_rel);
  return prior >= options_.max_inflight_queries;
}

void HyperQServer::DoneExecuting() {
  if (options_.max_inflight_queries <= 0) return;
  inflight_queries_.fetch_sub(1, std::memory_order_acq_rel);
}

void HyperQServer::BuildReply(HyperQSession& session,
                              const std::vector<uint8_t>& request,
                              Outgoing* out, bool* respond, bool shed) {
  ServerMetrics& metrics = ServerMetrics::Get();
  WireMetrics& wire = WireMetrics::Get();
  *respond = true;

  Result<qipc::DecodedMessage> msg = qipc::DecodeMessage(request);
  // Injected decode failures look exactly like a malformed request: a
  // structured error reply, never a dropped or torn frame.
  if (FaultHit f = CheckFault("qipc.decode");
      f.kind == FaultHit::Kind::kError) {
    msg = f.error;
  }
  // A reply is either `owned` bytes (errors, compressed responses) or
  // `slices` into the arena + result columns (plain scatter fast path).
  std::vector<uint8_t> reply;
  if (!msg.ok()) {
    reply = qipc::EncodeError(msg.status().ToString(),
                              qipc::MsgType::kResponse);
  } else if (IsUpdMessage(msg->value)) {
    // Tickerplant publish: dispatched straight to the ingest store, never
    // through the translator. Publishers ride the C10K event loop like
    // every query client.
    const std::vector<QValue>& items = msg->value.Items();
    LiveStore* store = session.gateway().live_store();
    Result<QValue> result = QValue();
    if (store == nullptr) {
      result = InvalidArgument("this server has no ingest store");
    } else if (shed) {
      metrics.busy_rejections->Increment();
      result = UnavailableError("server at inflight query cap");
    } else {
      Result<size_t> rows = store->Upd(items[1].AsSym(), items[2]);
      result = rows.ok()
                   ? Result<QValue>(QValue::Long(static_cast<int64_t>(*rows)))
                   : Result<QValue>(rows.status());
    }
    // Async publishes (the kdb+ norm) expect no reply — errors included:
    // the publisher observes them via `.hyperq.ingestStats` instead.
    if (msg->type == qipc::MsgType::kAsync) {
      *respond = false;
      return;
    }
    if (!result.ok()) {
      reply = qipc::EncodeError(WireErrorText(result.status()),
                                qipc::MsgType::kResponse);
    } else {
      Result<std::vector<uint8_t>> enc =
          qipc::EncodeMessage(*result, qipc::MsgType::kResponse);
      reply = enc.ok() ? std::move(*enc)
                       : qipc::EncodeError(enc.status().ToString(),
                                           qipc::MsgType::kResponse);
    }
  } else if (msg->value.type() != QType::kChar) {
    reply = qipc::EncodeError(
        "expected a query string (char list) in the request",
        qipc::MsgType::kResponse);
  } else {
    std::string q_text = msg->value.is_atom()
                             ? std::string(1, msg->value.AsChar())
                             : msg->value.CharsView();
    // Per-query deadline: the session's own (.hyperq.deadline[ms])
    // overrides the server default. The ambient deadline covers
    // translate, execute (incl. morsel fan-out) and serialize; builtins
    // are exempt (they are how a wedged client un-wedges the server).
    int64_t dl_ms = session.deadline_ms() > 0 ? session.deadline_ms()
                                              : options_.default_deadline_ms;
    Deadline deadline = dl_ms > 0 ? Deadline::After(dl_ms) : Deadline();
    if (deadline.armed()) metrics.deadline_armed->Increment();
    ScopedDeadline scoped(deadline);
    // Load shedding (decided by the caller, who owns the inflight
    // accounting): a shed caller gets the structured 'busy answer —
    // bounded queueing, and the client knows to back off (its retry, not
    // ours: the request never started, so retrying it is always safe).
    Result<QValue> result = QValue();
    if (shed) {
      metrics.busy_rejections->Increment();
      result = UnavailableError("server at inflight query cap");
    } else {
      result = session.Query(q_text);
    }
    if (!result.ok()) {
      if (result.status().code() == StatusCode::kTimeout) {
        metrics.deadline_timeouts->Increment();
      }
      reply = qipc::EncodeError(WireErrorText(result.status()),
                                qipc::MsgType::kResponse);
    } else if (FaultHit f = CheckFault("qipc.encode");
               f.kind == FaultHit::Kind::kError) {
      // Injected encode failure: the response is replaced by a
      // structured error, exactly like a real serialization bug.
      reply = qipc::EncodeError(f.error.ToString(),
                                qipc::MsgType::kResponse);
    } else {
      auto encode_start = std::chrono::steady_clock::now();
      if (options_.compress_responses) {
        Result<std::vector<uint8_t>> encoded =
            qipc::EncodeMessageCompressed(*result, qipc::MsgType::kResponse);
        if (!encoded.ok()) {
          reply = qipc::EncodeError(encoded.status().ToString(),
                                    qipc::MsgType::kResponse);
        } else {
          if ((*encoded)[2] == 0) {
            // Incompressible (or under-threshold) payload fell back to
            // the plain encoding.
            metrics.compress_fallbacks->Increment();
          } else if (encoded->size() > 12) {
            wire.compress_in_bytes->Increment(
                PlainLengthOfCompressed(*encoded));
            wire.compress_out_bytes->Increment(encoded->size());
          }
          reply = std::move(*encoded);
        }
      } else {
        // Plain responses take the zero-copy path: framing and small
        // payloads land in the arena, large typed columns are borrowed
        // from the result (pinned by `keepalive`) and gathered on the
        // wire by a scatter write.
        auto held = std::make_shared<QValue>(std::move(*result));
        Status enc = qipc::EncodeMessageScatter(
            *held, qipc::MsgType::kResponse, &out->arena, &out->slices);
        if (!enc.ok()) {
          out->slices.clear();
          reply = qipc::EncodeError(enc.ToString(),
                                    qipc::MsgType::kResponse);
        } else {
          out->keepalive = std::move(held);
        }
      }
      auto encode_end = std::chrono::steady_clock::now();
      wire.encode_us->Record(std::chrono::duration<double, std::micro>(
                                 encode_end - encode_start)
                                 .count());
    }
    // Async messages expect no response.
    if (msg->type == qipc::MsgType::kAsync) {
      *respond = false;
      return;
    }
  }
  if (out->slices.empty()) {
    out->owned = std::move(reply);
    out->slices.push_back(IoSlice{out->owned.data(), out->owned.size()});
  }
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

/// Per-socket QIPC protocol state machine on an event loop (§3.4: each
/// translator maintains its state as an FSM). States follow the wire
/// phases — handshake → frame header → frame body → dispatch →
/// write-drain — over a shared immutable transition table, so an idle
/// connection is just this object plus its (usually empty) read buffer.
class HyperQServer::QipcEventConn final : public ServerConn {
 public:
  enum class St { kHandshake, kFrameHeader, kFrameBody, kDispatch, kDrain };
  enum class Ev {
    kCredsComplete,
    kHeaderComplete,
    kBodyComplete,
    kReplyReady,
    kAsyncDone,
    kReplyDrained,
  };

  QipcEventConn(HyperQServer* server, EventLoop* loop, TcpConnection conn)
      : ServerConn(&server->events_, loop, std::move(conn)),
        server_(server),
        fsm_(St::kHandshake, &Table()) {}

  void AfterRegister() override {
    SetIdle(true);
    ArmReadTimer();
  }

 protected:
  void OnData() override { Pump(); }

  void OnPeerClosed() override {
    if (fsm_.state() == St::kHandshake) {
      ServerMetrics::Get().handshake_failures->Increment();
    }
    Close();
  }

  void OnError(const Status&) override { OnPeerClosed(); }

  void OnWriteDrained() override {
    if (fsm_.state() != St::kDrain) return;  // handshake ack drained
    (void)fsm_.Fire(Ev::kReplyDrained);
    RecordReplySent(pending_reply_bytes_, request_start_);
    pending_reply_bytes_ = 0;
    if (draining()) {
      Close();
      return;
    }
    ResumeReads();
    Pump();  // pipelined frames may already be buffered
  }

  void OnClosed() override {
    SetIdle(false);
    if (read_timer_ != 0) {
      loop()->CancelTimer(read_timer_);
      read_timer_ = 0;
    }
    // A query still running on the exec pool holds the session; its
    // completion callback closes it. Otherwise close here.
    if (!executing_) CloseSession();
    ServerConn::OnClosed();
  }

 private:
  using Table_t = TransitionTable<St, Ev>;

  static const Table_t& Table() {
    static const Table_t* t = [] {
      auto* table = new Table_t("qipc-conn");
      table->Add(St::kHandshake, Ev::kCredsComplete, St::kFrameHeader);
      table->Add(St::kFrameHeader, Ev::kHeaderComplete, St::kFrameBody);
      table->Add(St::kFrameBody, Ev::kBodyComplete, St::kDispatch);
      table->Add(St::kDispatch, Ev::kReplyReady, St::kDrain);
      table->Add(St::kDispatch, Ev::kAsyncDone, St::kFrameHeader);
      table->Add(St::kDrain, Ev::kReplyDrained, St::kFrameHeader);
      return table;
    }();
    return *t;
  }

  /// Drives the state machine over whatever is buffered. Decoding pulls
  /// requests straight out of rbuf_, so a client that pipelines N queries
  /// has them served back-to-back with no extra round trips.
  void Pump() {
    ServerMetrics& metrics = ServerMetrics::Get();
    while (!closed()) {
      size_t avail = rbuf_.size() - rpos_;
      switch (fsm_.state()) {
        case St::kHandshake: {
          // NUL-terminated credential block (§4.2).
          const uint8_t* base = rbuf_.data() + rpos_;
          const void* nul = std::memchr(base, 0, avail);
          if (nul == nullptr) {
            if (avail > kMaxHandshakeBytes) {  // junk
              metrics.handshake_failures->Increment();
              Close();
            }
            return;
          }
          size_t creds_len =
              static_cast<const uint8_t*>(nul) - base + 1;
          std::vector<uint8_t> creds(base, base + creds_len);
          ConsumeTo(rpos_ + creds_len);
          metrics.bytes_in->Increment(creds.size());
          Result<qipc::HandshakeRequest> hs = qipc::DecodeHandshake(creds);
          if (!hs.ok()) {
            metrics.handshake_failures->Increment();
            Close();
            return;
          }
          const Options& opts = server_->options_;
          if (!opts.user.empty() && (hs->user != opts.user ||
                                     hs->password != opts.password)) {
            // Rejected credentials: close immediately, as kdb+ does.
            metrics.handshake_failures->Increment();
            Close();
            return;
          }
          uint8_t accept_version = hs->version > 3 ? 3 : hs->version;
          Outgoing ack;
          ack.owned.push_back(accept_version);
          ack.slices.push_back(IoSlice{ack.owned.data(), 1});
          Send(std::move(ack));
          if (closed()) return;
          metrics.bytes_out->Increment(1);
          (void)fsm_.Fire(Ev::kCredsComplete);
          break;
        }
        case St::kFrameHeader: {
          if (avail < 8) {
            if (avail == 0) ConsumeTo(rpos_);  // allow shrink when empty
            return;
          }
          Result<uint32_t> len =
              qipc::PeekMessageLength(rbuf_.data() + rpos_);
          if (!len.ok() || *len < 9 || *len > kMaxFrameBytes) {
            Close();
            return;
          }
          frame_len_ = *len;
          (void)fsm_.Fire(Ev::kHeaderComplete);
          break;
        }
        case St::kFrameBody: {
          if (avail < frame_len_) return;
          request_start_ = std::chrono::steady_clock::now();
          std::vector<uint8_t> frame(
              rbuf_.data() + rpos_, rbuf_.data() + rpos_ + frame_len_);
          ConsumeTo(rpos_ + frame_len_);
          metrics.bytes_in->Increment(frame.size());
          (void)fsm_.Fire(Ev::kBodyComplete);
          Dispatch(std::move(frame));
          return;  // reads paused until the reply is on its way
        }
        case St::kDispatch:
        case St::kDrain:
          // Buffered pipelined bytes wait for the in-flight request.
          return;
      }
    }
  }

  /// Hands the frame to the exec pool (strictly one in flight per
  /// connection — the session is single-threaded) and pauses socket
  /// reads; pipelined frames accumulate in rbuf_ meanwhile.
  void Dispatch(std::vector<uint8_t> frame) {
    executing_ = true;
    SetIdle(false);
    PauseReads();
    if (!session_) {
      session_ = std::shared_ptr<HyperQSession>(server_->MakeSession());
    }
    auto self =
        std::static_pointer_cast<QipcEventConn>(shared_from_this());
    // Shed decision at dispatch: the cap counts queued + executing
    // queries, so the exec pool's queue stays bounded even when every
    // reactor is pumping pipelined requests at it.
    bool shed = server_->ShouldShed();
    bool accepted = Execute(
        [self, server = server_, session = session_, shed,
         frame = std::move(frame)] {
          auto out = std::make_shared<Outgoing>();
          bool respond = true;
          server->BuildReply(*session, frame, out.get(), &respond, shed);
          server->DoneExecuting();
          self->loop()->Post([self, out, respond] {
            self->OnQueryDone(std::move(*out), respond);
          });
        });
    if (!accepted) {  // server stopping; no more replies will flow
      server_->DoneExecuting();
      executing_ = false;
      Close();
    }
  }

  /// Completion, back on the loop thread.
  void OnQueryDone(Outgoing out, bool respond) {
    executing_ = false;
    if (closed()) {
      CloseSession();
      return;
    }
    if (!respond) {  // async message: no reply on the wire
      (void)fsm_.Fire(Ev::kAsyncDone);
      if (draining()) {
        if (!write_pending()) Close();
        return;
      }
      SetIdle(true);
      ResumeReads();
      Pump();
      return;
    }
    (void)fsm_.Fire(Ev::kReplyReady);
    SetIdle(true);
    pending_reply_bytes_ = out.TotalBytes();
    if (out.slices.size() > 1) {
      WireMetrics& wire = WireMetrics::Get();
      wire.scatter_slices->Increment(out.slices.size());
      wire.writev_calls->Increment();
    }
    Send(std::move(out));  // OnWriteDrained advances the machine
  }

  void CloseSession() {
    if (session_) {
      (void)session_->Close();
      session_.reset();
    }
  }

  void SetIdle(bool idle) {
    if (idle == counted_idle_) return;
    counted_idle_ = idle;
    server_->AdjustIdle(idle ? +1 : -1);
  }

  void ArmReadTimer() {
    int timeout = server_->options_.read_timeout_ms;
    if (timeout <= 0) return;
    read_timer_ = loop()->AddTimerAfter(std::chrono::milliseconds(timeout),
                                        [this] { ReadTimerFired(); });
  }

  void ReadTimerFired() {
    read_timer_ = 0;
    if (closed() || draining()) return;
    int timeout = server_->options_.read_timeout_ms;
    if (executing_ || write_pending()) {
      // Not waiting on the peer right now; check again in a full window.
      ArmReadTimer();
      return;
    }
    auto idle_for = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - last_activity())
                        .count();
    if (idle_for >= timeout) {
      ServerMetrics::Get().read_timeouts->Increment();
      if (fsm_.state() == St::kHandshake) {
        ServerMetrics::Get().handshake_failures->Increment();
      }
      Close();
      return;
    }
    read_timer_ = loop()->AddTimerAfter(
        std::chrono::milliseconds(timeout - idle_for),
        [this] { ReadTimerFired(); });
  }

  HyperQServer* server_;
  Fsm<St, Ev> fsm_;
  std::shared_ptr<HyperQSession> session_;
  uint32_t frame_len_ = 0;
  bool counted_idle_ = false;
  uint64_t read_timer_ = 0;
  size_t pending_reply_bytes_ = 0;
  std::chrono::steady_clock::time_point request_start_{};
};

HyperQServer::HyperQServer(sqldb::Database* backend, Options options)
    : backend_(backend),
      options_(std::move(options)),
      translation_cache_(options_.session.translation_cache),
      events_("server",
              EventServer::Options{options_.event_loop_threads,
                                   options_.exec_threads,
                                   options_.max_connections,
                                   options_.drain_timeout_ms},
              [this](EventLoop* loop, TcpConnection conn) {
                return std::make_shared<QipcEventConn>(this, loop,
                                                       std::move(conn));
              }) {
  // One translation cache for the whole server: every per-connection
  // session shares the hot entries (the cache is internally sharded and
  // thread-safe). Sessions receive it through their options.
  translation_cache_.SetVersionProvider(
      [this]() { return backend_->catalog().version(); });
  options_.session.shared_translation_cache = &translation_cache_;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Result<QipcClient> QipcClient::Connect(const std::string& host,
                                       uint16_t port,
                                       const std::string& user,
                                       const std::string& password) {
  HQ_ASSIGN_OR_RETURN(TcpConnection conn, TcpConnection::Connect(host, port));
  std::vector<uint8_t> hs = qipc::EncodeHandshake(user, password);
  HQ_RETURN_IF_ERROR(conn.WriteAll(hs));
  Result<std::vector<uint8_t>> ack = conn.ReadExact(1);
  if (!ack.ok()) {
    return AuthError(
        "connection rejected during QIPC handshake (bad credentials?)");
  }
  return QipcClient(std::move(conn));
}

Result<QValue> QipcClient::Query(const std::string& q_text) {
  return Call(QValue::Chars(q_text));
}

Status QipcClient::AsyncCall(const QValue& value) {
  HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> msg,
                      qipc::EncodeMessage(value, qipc::MsgType::kAsync));
  return conn_.WriteAll(msg);
}

Result<QValue> QipcClient::Call(const QValue& value) {
  HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> msg,
                      qipc::EncodeMessage(value, qipc::MsgType::kSync));
  HQ_RETURN_IF_ERROR(conn_.WriteAll(msg));

  uint8_t header[8];
  HQ_RETURN_IF_ERROR(conn_.ReadExactInto(header, 8));
  HQ_ASSIGN_OR_RETURN(uint32_t len, qipc::PeekMessageLength(header));
  if (len < 9 || len > (256u << 20)) {
    return ProtocolError(StrCat("implausible QIPC response length ", len));
  }
  // Read the body straight after the header in one buffer — no
  // header/rest splice copy.
  std::vector<uint8_t> whole(len);
  std::memcpy(whole.data(), header, 8);
  HQ_RETURN_IF_ERROR(conn_.ReadExactInto(whole.data() + 8, len - 8));
  HQ_ASSIGN_OR_RETURN(qipc::DecodedMessage reply,
                      qipc::DecodeMessage(whole));
  if (reply.is_error) {
    return ExecutionError(StrCat("'", reply.error));
  }
  return reply.value;
}

}  // namespace hyperq
