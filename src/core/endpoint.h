#ifndef HYPERQ_CORE_ENDPOINT_H_
#define HYPERQ_CORE_ENDPOINT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/hyperq.h"
#include "net/event_server.h"
#include "net/tcp.h"
#include "protocol/qipc/qipc.h"

namespace hyperq {

/// The Endpoint plugin of Figure 1: listens on the port the original kdb+
/// server would own (§3.1: "Hyper-Q takes over kdb+ server by listening to
/// incoming messages on the port used by the original kdb+ server"),
/// performs the QIPC handshake, extracts query text from incoming messages
/// and runs each request through a per-connection HyperQSession.
///
/// Connections run on the shared EventServer (net/event_server.h): an
/// epoll reactor multiplexes every connection as a per-socket QIPC state
/// machine; queries execute on a small TaskPool (which fans morsels out to
/// the shared WorkerPool) and responses drain asynchronously on EPOLLOUT.
/// Idle sessions cost a few hundred bytes, so tens of thousands are
/// affordable.
class HyperQServer {
 public:
  struct Options {
    HyperQSession::Options session;
    /// Empty user accepts any credentials (kdb+'s historical default of no
    /// access control, §2.2); otherwise user/password must match.
    std::string user;
    std::string password;
    /// Compress large responses with kdb+ IPC compression (§3.1). kdb+
    /// compresses only for remote peers; the endpoint makes it opt-in.
    bool compress_responses = false;
    /// Reactor threads; 0 sizes to the hardware (min(cores, 8)).
    int event_loop_threads = 0;
    /// Query-execution threads (each runs whole queries; morsel fan-out
    /// still happens on the shared WorkerPool); 0 picks a small hardware
    /// default.
    int exec_threads = 0;
    /// Hard cap on simultaneously served connections; refusals are closed
    /// before the accept byte, which a q client surfaces as a rejected
    /// handshake rather than a hang.
    int max_connections = 65536;
    /// Per-connection idle read timeout in milliseconds; 0 disables. A
    /// connection whose next request does not arrive in time is closed
    /// (slow-loris style half-open peers no longer pin a worker forever).
    int read_timeout_ms = 0;
    /// Default per-query deadline in milliseconds; 0 disables. A session
    /// can override its own with `.hyperq.deadline[ms]`. Expired queries
    /// answer with the structured 'timeout error and the connection stays
    /// usable.
    int64_t default_deadline_ms = 0;
    /// Load shedding: sync queries beyond this many simultaneously
    /// executing ones are answered immediately with the structured 'busy
    /// error instead of queueing without bound. 0 disables.
    int max_inflight_queries = 0;
    /// Stop() drain bound in milliseconds: how long in-flight requests may
    /// take to finish writing their responses before a per-connection
    /// force-close timer closes the stragglers.
    int drain_timeout_ms = 5000;
    /// Builds the backend gateway for each connection's session; null uses
    /// a DirectGateway on the server's backend. Lets the server front the
    /// sharded scatter-gather coordinator: the factory is called once per
    /// connection and each gateway must expose in-process
    /// database()/session() handles (see HyperQSession).
    std::function<std::unique_ptr<BackendGateway>()> gateway_factory;
  };

  HyperQServer(sqldb::Database* backend, Options options);
  ~HyperQServer() { Stop(); }

  /// Binds 127.0.0.1:port (0 = ephemeral) and serves until Stop().
  Status Start(uint16_t port) { return events_.Start(port); }
  uint16_t port() const { return events_.port(); }

  /// Stops accepting, then drains: in-flight requests run to completion
  /// and their responses are written (reads are shut down, writes are
  /// not); idle connections close immediately. Blocks until every
  /// connection has closed (bounded by drain_timeout_ms). Safe to call
  /// repeatedly / concurrently.
  void Stop() { events_.Stop(); }

  /// Admitted (or about-to-be-refused) connections right now. Returns to
  /// 0 after all clients disconnect.
  int active_connections() const { return events_.active_connections(); }

  /// The server-wide translation cache shared by all sessions.
  TranslationCache& translation_cache() { return translation_cache_; }

 private:
  class QipcEventConn;
  friend class QipcEventConn;

  /// Decode → deadline → shed → execute → encode for one request frame
  /// into a fresh `out`. Sets *respond = false for async messages
  /// (executed, no reply).
  void BuildReply(HyperQSession& session,
                  const std::vector<uint8_t>& request, Outgoing* out,
                  bool* respond, bool shed);
  /// Inflight-query admission: returns true when this query must be
  /// answered 'busy. Every call must be paired with DoneExecuting().
  bool ShouldShed();
  void DoneExecuting();
  std::unique_ptr<HyperQSession> MakeSession();
  /// Tracks the `server.connections_idle` gauge (admitted connections not
  /// currently executing a query).
  void AdjustIdle(int delta);

  sqldb::Database* backend_;
  Options options_;
  TranslationCache translation_cache_;
  std::atomic<int> idle_count_{0};
  std::atomic<int> inflight_queries_{0};
  EventServer events_;  // last: built from options_, destroyed first
};

/// A minimal Q-application-side client: speaks QIPC exactly as a q process
/// would (handshake, sync query messages, response/error decoding). Used by
/// the examples and the end-to-end tests to play the role of the unchanged
/// Q application.
class QipcClient {
 public:
  static Result<QipcClient> Connect(const std::string& host, uint16_t port,
                                    const std::string& user,
                                    const std::string& password);

  /// Sends a sync query and decodes the response (errors surface as
  /// ExecutionError carrying the server's message).
  Result<QValue> Query(const std::string& q_text);

  /// Sends an arbitrary Q value synchronously — e.g. a tickerplant
  /// publish `(`upd; `trade; batch)` — and decodes the reply.
  Result<QValue> Call(const QValue& value);

  /// Fire-and-forget publish (kAsync): the server executes the message
  /// and sends no reply, exactly like a q tickerplant subscriber feed.
  Status AsyncCall(const QValue& value);

  void Close() { conn_.Close(); }

 private:
  explicit QipcClient(TcpConnection conn) : conn_(std::move(conn)) {}

  TcpConnection conn_;
};

}  // namespace hyperq

#endif  // HYPERQ_CORE_ENDPOINT_H_
