#ifndef HYPERQ_NET_EVENT_LOOP_H_
#define HYPERQ_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/tcp.h"

namespace hyperq {

class Counter;
class Gauge;
class LatencyHistogram;

/// One epoll reactor thread: a level-triggered epoll set, an eventfd for
/// cross-thread wakeups, a task queue (Post), and a timer wheel. All I/O
/// callbacks, timers and posted tasks run on the single loop thread, so
/// per-connection state needs no locking.
///
/// Thread-safety contract: Post() and Stop() may be called from any
/// thread; everything else (AddWatch/ModifyWatch/RemoveWatch, timers) is
/// loop-thread-only — callers elsewhere get there via Post().
class EventLoop {
 public:
  using IoCallback = std::function<void(uint32_t epoll_events)>;

  /// Opaque registration handle; owned by the loop once added.
  struct Watch;

  explicit EventLoop(int index = 0) : index_(index) {}
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll set + wakeup eventfd and spawns the loop thread.
  Status Start();

  /// Requests stop, wakes the loop, and joins. The loop drains its posted
  /// task queue before exiting so completion callbacks posted by worker
  /// threads are never lost. Idempotent.
  void Stop();

  /// Enqueues fn to run on the loop thread (thread-safe). Tasks posted
  /// after Stop() has completed are dropped.
  void Post(std::function<void()> fn);

  bool OnLoopThread() const {
    return std::this_thread::get_id() ==
           thread_id_.load(std::memory_order_acquire);
  }
  int index() const { return index_; }

  /// Registers fd with the epoll set (loop thread only). `events` is an
  /// EPOLLIN/EPOLLOUT mask; the callback receives the ready mask of each
  /// wakeup. The returned handle stays valid until RemoveWatch.
  Watch* AddWatch(int fd, uint32_t events, IoCallback cb);
  /// Replaces the interest mask (loop thread only).
  void ModifyWatch(Watch* w, uint32_t events);
  /// Unregisters and retires the watch (loop thread only). The callback
  /// will not fire again, even for events already harvested in the current
  /// epoll batch; the Watch object itself is freed after the batch, so
  /// removing a peer's watch from inside another callback is safe.
  void RemoveWatch(Watch* w);

  /// One-shot timer (loop thread only); returns an id for CancelTimer.
  uint64_t AddTimerAfter(std::chrono::milliseconds delay,
                         std::function<void()> fn);
  void CancelTimer(uint64_t id);

  /// 64 KiB loop-owned read staging buffer (loop thread only). Connections
  /// recv() into this and append only the bytes actually received to their
  /// own buffers, so an idle connection's read buffer stays exactly as big
  /// as its pending data — the memory-per-idle-session lever.
  uint8_t* scratch() { return scratch_.data(); }
  size_t scratch_size() const { return scratch_.size(); }

 private:
  void Run();
  void DrainPosts();
  void RunExpiredTimers();
  int NextTimerDelayMs() const;

  const int index_;
  int epfd_ = -1;
  int wake_fd_ = -1;
  std::atomic<std::thread::id> thread_id_{};
  std::unique_ptr<std::thread> thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  bool post_closed_ = false;  // guarded by post_mu_

  // Loop-thread-only state.
  std::vector<Watch*> graveyard_;
  uint64_t next_timer_id_ = 1;
  std::multimap<std::chrono::steady_clock::time_point, uint64_t>
      timer_order_;
  struct TimerEntry {
    std::multimap<std::chrono::steady_clock::time_point,
                  uint64_t>::iterator order_it;
    std::function<void()> fn;
  };
  std::unordered_map<uint64_t, TimerEntry> timers_;
  std::vector<uint8_t> scratch_;

  Counter* wakeups_ = nullptr;
  LatencyHistogram* dispatch_us_ = nullptr;
  Gauge* queue_depth_ = nullptr;
};

/// N reactor threads with round-robin connection placement (single
/// dispatcher model: one loop owns the listener, accepted sockets are
/// handed to Next()).
class EventLoopGroup {
 public:
  /// threads == 0 sizes the group to the hardware (min(cores, 8)).
  explicit EventLoopGroup(size_t threads = 0);

  Status Start();
  void Stop();

  EventLoop* Next() {
    return loops_[next_.fetch_add(1, std::memory_order_relaxed) %
                  loops_.size()]
        .get();
  }
  EventLoop* loop(size_t i) { return loops_[i].get(); }
  size_t size() const { return loops_.size(); }

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_{0};
};

/// One queued response: the slices go on the wire in order; the other
/// members own (or pin) every byte the slices point at. All backing
/// stores are heap-stable under move, so an Outgoing can sit in the write
/// queue while the socket drains it across multiple EPOLLOUT rounds.
struct Outgoing {
  std::vector<uint8_t> owned;       ///< contiguous replies (errors, compressed)
  ByteWriter arena;                 ///< scatter framing + small payloads
  std::shared_ptr<void> keepalive;  ///< pins borrowed column payloads
  std::vector<IoSlice> slices;
  size_t idx = 0;  ///< write cursor: next slice
  size_t off = 0;  ///< write cursor: bytes of slices[idx] already sent

  size_t TotalBytes() const {
    size_t n = 0;
    for (const IoSlice& s : slices) n += s.len;
    return n;
  }
};

/// A non-blocking connection bound to one EventLoop: buffered reads in,
/// queued scatter writes out, with the protocol state machine supplied by
/// a subclass (QIPC in core/endpoint.cc, PG v3 in protocol/pgwire). All
/// methods are loop-thread-only; cross-thread completion goes through
/// loop()->Post with a shared_ptr keeping the connection alive.
class EventConn : public std::enable_shared_from_this<EventConn> {
 public:
  EventConn(EventLoop* loop, TcpConnection conn)
      : loop_(loop), conn_(std::move(conn)) {}
  virtual ~EventConn();

  EventConn(const EventConn&) = delete;
  EventConn& operator=(const EventConn&) = delete;

  /// Switches the socket non-blocking and registers for EPOLLIN. Must be
  /// called (on the loop thread) before any traffic.
  Status Register();

  /// Queues a response and flushes as much as the socket accepts now;
  /// the remainder drains on EPOLLOUT. Dropped silently once closed.
  void Send(Outgoing out);

  /// Unregisters, closes the fd and fires OnClosed() exactly once. Any
  /// queued unwritten output is discarded.
  void Close();

  bool closed() const { return closed_; }
  bool write_pending() const { return outq_head_ < outq_.size(); }
  EventLoop* loop() const { return loop_; }
  int fd() const { return conn_.fd(); }
  TcpConnection& connection() { return conn_; }

  /// Stops reading from the socket (drops EPOLLIN interest). Bytes already
  /// in rbuf_ stay; used while a query executes (one in flight per
  /// connection) and during server drain.
  void PauseReads();
  /// Re-arms EPOLLIN. Does not replay buffered data — the subclass pumps
  /// its own state machine after resuming.
  void ResumeReads();
  bool reads_paused() const { return reads_paused_; }

  std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }

 protected:
  /// New bytes are available in rbuf_[rpos_ .. rbuf_.size()). Consume by
  /// advancing with ConsumeTo(); leftovers persist to the next call
  /// (pipelined requests decode straight out of this buffer).
  virtual void OnData() = 0;
  /// Orderly EOF from the peer (after any final OnData). Default: Close().
  virtual void OnPeerClosed() { Close(); }
  /// Read or write failure, including injected net.read/net.write faults.
  /// Default: Close() — an I/O error abandons the connection.
  virtual void OnError(const Status& error);
  /// The write queue just became empty.
  virtual void OnWriteDrained() {}
  /// The fd has been closed and no further callbacks will fire; the
  /// owning server unregisters its shared_ptr here.
  virtual void OnClosed() {}

  /// Marks rbuf_[0 .. pos) consumed and compacts when profitable.
  void ConsumeTo(size_t pos);

  std::vector<uint8_t> rbuf_;
  size_t rpos_ = 0;

 private:
  void HandleEvents(uint32_t events);
  void ReadCycle();
  /// Returns false when the connection died mid-flush.
  bool FlushWrites();
  void UpdateInterest();

  EventLoop* loop_;
  TcpConnection conn_;
  EventLoop::Watch* watch_ = nullptr;
  std::vector<Outgoing> outq_;
  size_t outq_head_ = 0;
  uint32_t interest_ = 0;
  bool reads_paused_ = false;
  bool closed_ = false;
  std::chrono::steady_clock::time_point last_activity_{};
};

}  // namespace hyperq

#endif  // HYPERQ_NET_EVENT_LOOP_H_
