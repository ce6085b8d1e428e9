#include "net/event_server.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <future>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"

namespace hyperq {

// ---------------------------------------------------------------------------
// ServerConn
// ---------------------------------------------------------------------------

void ServerConn::BeginDrain() {
  if (closed() || draining_) return;
  draining_ = true;
  PauseReads();
  ::shutdown(fd(), SHUT_RD);
  if (!executing_ && !write_pending()) {
    Close();
    return;
  }
  int bound = event_server_->options_.drain_timeout_ms > 0
                  ? event_server_->options_.drain_timeout_ms
                  : 1;
  drain_timer_ = loop()->AddTimerAfter(std::chrono::milliseconds(bound),
                                       [this] {
                                         drain_timer_ = 0;
                                         Close();
                                       });
}

void ServerConn::OnClosed() {
  if (drain_timer_ != 0) {
    loop()->CancelTimer(drain_timer_);
    drain_timer_ = 0;
  }
  event_server_->Release(this);
}

bool ServerConn::Execute(std::function<void()> task) {
  return event_server_->exec_pool_->Submit(std::move(task));
}

// ---------------------------------------------------------------------------
// EventServer
// ---------------------------------------------------------------------------

EventServer::EventServer(const std::string& metric_prefix, Options options,
                         ConnFactory factory)
    : name_(metric_prefix),
      options_(options),
      factory_(std::move(factory)) {
  MetricsRegistry& r = MetricsRegistry::Global();
  connections_active_ = r.GetGauge(metric_prefix + ".connections_active");
  connections_total_ = r.GetCounter(metric_prefix + ".connections_total");
  connections_refused_ = r.GetCounter(metric_prefix + ".connections_refused");
}

Status EventServer::Start(uint16_t port) {
  HQ_ASSIGN_OR_RETURN(TcpListener listener, TcpListener::Listen(port));
  port_ = listener.port();
  listener_ = std::make_unique<TcpListener>(std::move(listener));
  loops_ = std::make_unique<EventLoopGroup>(
      options_.event_loop_threads > 0
          ? static_cast<size_t>(options_.event_loop_threads)
          : 0);
  HQ_RETURN_IF_ERROR(loops_->Start());
  exec_pool_ = std::make_unique<TaskPool>(
      options_.exec_threads > 0 ? static_cast<size_t>(options_.exec_threads)
                                : 0);
  HQ_RETURN_IF_ERROR(listener_->SetNonBlocking(true));
  running_ = true;
  // Single dispatcher: loop 0 owns the listener and fans accepted sockets
  // out across the group.
  loops_->loop(0)->Post([this] {
    listen_watch_ = loops_->loop(0)->AddWatch(
        listener_->fd(), EPOLLIN, [this](uint32_t) { AcceptReady(); });
  });
  return Status::OK();
}

int EventServer::AdjustActive(int delta) {
  int now = active_count_.fetch_add(delta, std::memory_order_acq_rel) + delta;
  connections_active_->Set(now);
  return now;
}

void EventServer::AcceptReady() {
  while (true) {
    Result<std::optional<TcpConnection>> pending = listener_->TryAccept();
    if (!pending.ok()) {
      if (running_ && !TcpListener::IsClosedError(pending.status())) {
        HQ_LOG(Warning) << "event server '" << name_ << "' accept failed: "
                        << pending.status().ToString();
      }
      if (listen_watch_ != nullptr) {
        loops_->loop(0)->RemoveWatch(listen_watch_);
        listen_watch_ = nullptr;
      }
      return;
    }
    if (!pending->has_value()) return;  // accept queue drained
    TcpConnection conn = std::move(**pending);
    connections_total_->Increment();
    if (AdjustActive(+1) > options_.max_connections || !running_) {
      // Non-blocking refusal: close before any protocol byte, right here
      // on the dispatcher — no registration, no syscalls beyond the close.
      connections_refused_->Increment();
      AdjustActive(-1);
      continue;
    }
    EventLoop* target = loops_->Next();
    std::shared_ptr<ServerConn> sc = factory_(target, std::move(conn));
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conns_.emplace(sc.get(), sc);
    }
    target->Post([sc] {
      if (!sc->Register().ok()) {
        sc->Close();
        return;
      }
      sc->AfterRegister();
    });
  }
}

void EventServer::Release(EventConn* conn) {
  AdjustActive(-1);
  std::lock_guard<std::mutex> lock(conn_mu_);
  conns_.erase(conn);
  if (conns_.empty()) drain_cv_.notify_all();
}

void EventServer::PostToEachConn(void (ServerConn::*method)()) {
  std::vector<std::shared_ptr<ServerConn>> snapshot;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    snapshot.reserve(conns_.size());
    for (auto& [ptr, sp] : conns_) snapshot.push_back(sp);
  }
  for (std::shared_ptr<ServerConn>& sp : snapshot) {
    EventLoop* loop = sp->loop();
    loop->Post([sp = std::move(sp), method] { ((*sp).*method)(); });
  }
}

void EventServer::WaitForNoConns(std::chrono::milliseconds bound) {
  std::unique_lock<std::mutex> lock(conn_mu_);
  drain_cv_.wait_for(lock, bound, [this] { return conns_.empty(); });
}

void EventServer::Stop() {
  if (!running_.exchange(false)) return;
  // 1. Stop accepting. The watch retirement must complete on the loop
  // thread BEFORE the fd is closed here: close() racing the loop's
  // epoll_ctl on the same descriptor is a genuine data race (and could
  // hit a recycled fd number). The bounded wait covers the pathological
  // case of a loop that died early (its posts are dropped).
  {
    auto removed = std::make_shared<std::promise<void>>();
    std::future<void> done = removed->get_future();
    loops_->loop(0)->Post([this, removed] {
      if (listen_watch_ != nullptr) {
        loops_->loop(0)->RemoveWatch(listen_watch_);
        listen_watch_ = nullptr;
      }
      removed->set_value();
    });
    done.wait_for(std::chrono::seconds(2));
  }
  listener_->Close();
  // 2. Drain every connection on its own loop: idle ones close now, busy
  // ones finish their in-flight request + response under a per-connection
  // force-close timer.
  PostToEachConn(&ServerConn::BeginDrain);
  // 3. Bounded wait for the drain to finish.
  WaitForNoConns(std::chrono::milliseconds(options_.drain_timeout_ms + 1000));
  // 4. Queries still running finish here (deadlines bound them); their
  // completion posts land on loops that are still alive.
  exec_pool_->Stop();
  // 5. Anything that survived the drain window is closed unconditionally.
  PostToEachConn(&ServerConn::Close);
  WaitForNoConns(std::chrono::milliseconds(1000));
  // 6. Loops drain their remaining posts (connection releases) and exit.
  loops_->Stop();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns_.clear();
  }
  HQ_LOG(Debug) << "event server '" << name_ << "' stopped; final metrics:\n"
                << MetricsRegistry::Global().TextDump();
}

}  // namespace hyperq
