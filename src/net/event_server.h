#ifndef HYPERQ_NET_EVENT_SERVER_H_
#define HYPERQ_NET_EVENT_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/worker_pool.h"
#include "net/event_loop.h"
#include "net/tcp.h"

namespace hyperq {

class Counter;
class EventServer;
class Gauge;

/// A connection owned by an EventServer: an EventConn plus the two hooks
/// the shared accept and drain paths call. Protocol servers subclass this
/// with their per-socket state machine (QIPC in core/endpoint.cc, PG v3 in
/// protocol/pgwire).
class ServerConn : public EventConn {
 public:
  ServerConn(EventServer* server, EventLoop* loop, TcpConnection conn)
      : EventConn(loop, std::move(conn)), event_server_(server) {}

  /// Runs on the loop thread right after Register() succeeds.
  virtual void AfterRegister() {}

  /// Server drain (Stop): stop reading; an idle connection closes now, a
  /// busy one finishes its in-flight request and response under a
  /// force-close timer of the server's drain bound.
  void BeginDrain();

 protected:
  /// Releases the connection from its server. Subclasses that override
  /// must call ServerConn::OnClosed() last.
  void OnClosed() override;

  /// Runs `task` on the server's query-execution pool; false once the
  /// server is stopping (the task is dropped).
  bool Execute(std::function<void()> task);

  bool draining() const { return draining_; }

  /// True while a request of this connection is queued or running on the
  /// exec pool; a drain lets it finish.
  bool executing_ = false;

 private:
  EventServer* event_server_;
  bool draining_ = false;
  uint64_t drain_timer_ = 0;
};

/// The accept/drain skeleton both protocol servers run on: a listener on
/// 127.0.0.1, an EventLoopGroup whose loop 0 is the single accept
/// dispatcher, a TaskPool for query execution, admission control before
/// any protocol byte, the registry that keeps live connections alive, and
/// the bounded drain of Stop(). The protocol lives entirely in the
/// ServerConn subclass the factory builds.
class EventServer {
 public:
  struct Options {
    /// Reactor threads; 0 sizes to the hardware (min(cores, 8)).
    int event_loop_threads = 0;
    /// Query-execution threads; 0 picks a small hardware default.
    int exec_threads = 0;
    /// Hard cap on simultaneously served connections. Refused sockets
    /// are closed right after accept, before any protocol byte.
    int max_connections = 65536;
    /// Stop() drain bound in milliseconds: how long an in-flight request
    /// may take to finish writing its response before its connection is
    /// forced closed.
    int drain_timeout_ms = 5000;
  };

  /// Builds the protocol connection for an accepted socket on `loop`.
  using ConnFactory = std::function<std::shared_ptr<ServerConn>(
      EventLoop* loop, TcpConnection conn)>;

  /// `metric_prefix` names the admission metrics:
  /// <prefix>.connections_{active,total,refused}.
  EventServer(const std::string& metric_prefix, Options options,
              ConnFactory factory);
  ~EventServer() { Stop(); }

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Binds 127.0.0.1:port (0 = ephemeral) and serves until Stop().
  Status Start(uint16_t port);
  uint16_t port() const { return port_; }

  /// Stops accepting, then drains: idle connections close immediately,
  /// busy ones finish their in-flight request and response. Blocks until
  /// every connection has closed (bounded by drain_timeout_ms). Safe to
  /// call repeatedly / concurrently.
  void Stop();

  /// Admitted connections right now; returns to 0 once all clients leave.
  int active_connections() const {
    return active_count_.load(std::memory_order_acquire);
  }

 private:
  friend class ServerConn;

  /// Listener-ready callback on loop 0: accepts every pending socket,
  /// applies admission control without blocking, and round-robins the
  /// admitted connections across the reactor group.
  void AcceptReady();
  /// Called from ServerConn::OnClosed on the connection's loop.
  void Release(EventConn* conn);
  /// Runs `method` on every registered connection, each on its own loop.
  void PostToEachConn(void (ServerConn::*method)());
  /// Waits up to `bound` for the registry to empty.
  void WaitForNoConns(std::chrono::milliseconds bound);
  /// Publishes the admission count on the active-connections gauge.
  /// Set() rather than Add() so a mid-flight .hyperq.resetStats[] desyncs
  /// the gauge only until the next connection event.
  int AdjustActive(int delta);

  const std::string name_;
  const Options options_;
  const ConnFactory factory_;
  Gauge* connections_active_;
  Counter* connections_total_;
  Counter* connections_refused_;

  uint16_t port_ = 0;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<EventLoopGroup> loops_;
  std::unique_ptr<TaskPool> exec_pool_;
  EventLoop::Watch* listen_watch_ = nullptr;  // loop-0-thread-only
  std::atomic<bool> running_{false};
  std::atomic<int> active_count_{0};

  std::mutex conn_mu_;
  std::condition_variable drain_cv_;
  /// Keeps every live connection alive; guarded by conn_mu_.
  std::unordered_map<EventConn*, std::shared_ptr<ServerConn>> conns_;
};

}  // namespace hyperq

#endif  // HYPERQ_NET_EVENT_SERVER_H_
