#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace hyperq {

namespace {

Status Errno(const char* what) {
  return NetworkError(StrCat(what, ": ", std::strerror(errno)));
}

/// Cap on bytes pulled off one socket per EPOLLIN wakeup, so a firehose
/// peer cannot starve the other connections sharing the loop.
constexpr size_t kMaxReadPerCycle = 256u << 10;

/// Shrink threshold for the per-connection read buffer once it is empty,
/// so one oversized request does not pin its peak footprint.
constexpr size_t kReadBufferKeepBytes = 1u << 20;

}  // namespace

struct EventLoop::Watch {
  int fd;
  uint32_t events;
  EventLoop::IoCallback cb;
  bool dead = false;
};

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  if (started_.exchange(true)) return Status::OK();
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epfd_);
    epfd_ = -1;
    return Errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the wakeup eventfd
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    Status s = Errno("epoll_ctl(wakeup)");
    ::close(wake_fd_);
    ::close(epfd_);
    wake_fd_ = epfd_ = -1;
    return s;
  }
  scratch_.resize(64u << 10);
  MetricsRegistry& r = MetricsRegistry::Global();
  wakeups_ = r.GetCounter("eventloop.wakeups");
  dispatch_us_ = r.GetHistogram("eventloop.dispatch_us");
  queue_depth_ = r.GetGauge(StrCat("eventloop.queue_depth.", index_));
  thread_ = std::make_unique<std::thread>([this] { Run(); });
  return Status::OK();
}

void EventLoop::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (!stop_.exchange(true)) {
    uint64_t one = 1;
    if (wake_fd_ >= 0) {
      [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    }
  }
  if (thread_ && thread_->joinable()) thread_->join();
  thread_.reset();
  {
    // Reject (and drop) anything posted from here on; the loop already
    // drained everything enqueued before it exited.
    std::lock_guard<std::mutex> lock(post_mu_);
    post_closed_ = true;
    posted_.clear();
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epfd_ >= 0) {
    ::close(epfd_);
    epfd_ = -1;
  }
  for (Watch* w : graveyard_) delete w;
  graveyard_.clear();
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    if (post_closed_) return;
    posted_.push_back(std::move(fn));
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<int64_t>(posted_.size()));
    }
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

EventLoop::Watch* EventLoop::AddWatch(int fd, uint32_t events,
                                      IoCallback cb) {
  auto* w = new Watch{fd, events, std::move(cb), false};
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = w;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    HQ_LOG(Warning) << "epoll_ctl(ADD) failed for fd " << fd << ": "
                    << std::strerror(errno);
    delete w;
    return nullptr;
  }
  return w;
}

void EventLoop::ModifyWatch(Watch* w, uint32_t events) {
  if (w == nullptr || w->dead || w->events == events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = w;
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, w->fd, &ev) == 0) {
    w->events = events;
  }
}

void EventLoop::RemoveWatch(Watch* w) {
  if (w == nullptr || w->dead) return;
  w->dead = true;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, w->fd, nullptr);
  graveyard_.push_back(w);
}

uint64_t EventLoop::AddTimerAfter(std::chrono::milliseconds delay,
                                  std::function<void()> fn) {
  uint64_t id = next_timer_id_++;
  auto when = std::chrono::steady_clock::now() + delay;
  auto order_it = timer_order_.emplace(when, id);
  timers_.emplace(id, TimerEntry{order_it, std::move(fn)});
  return id;
}

void EventLoop::CancelTimer(uint64_t id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) return;
  timer_order_.erase(it->second.order_it);
  timers_.erase(it);
}

void EventLoop::RunExpiredTimers() {
  auto now = std::chrono::steady_clock::now();
  while (!timer_order_.empty() && timer_order_.begin()->first <= now) {
    uint64_t id = timer_order_.begin()->second;
    auto it = timers_.find(id);
    std::function<void()> fn = std::move(it->second.fn);
    timer_order_.erase(timer_order_.begin());
    timers_.erase(it);
    fn();  // may add or cancel other timers; both maps are consistent
  }
}

int EventLoop::NextTimerDelayMs() const {
  if (timer_order_.empty()) return -1;
  auto now = std::chrono::steady_clock::now();
  auto when = timer_order_.begin()->first;
  if (when <= now) return 0;
  auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(when - now)
          .count() +
      1;
  return static_cast<int>(std::min<long long>(ms, 60 * 1000));
}

void EventLoop::DrainPosts() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
    if (queue_depth_ != nullptr) queue_depth_->Set(0);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::Run() {
  thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
  std::vector<epoll_event> events(512);
  while (true) {
    RunExpiredTimers();
    DrainPosts();
    for (Watch* w : graveyard_) delete w;
    graveyard_.clear();
    if (stop_.load(std::memory_order_acquire)) break;
    int n = ::epoll_wait(epfd_, events.data(),
                         static_cast<int>(events.size()),
                         NextTimerDelayMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      HQ_LOG(Error) << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    wakeups_->Increment();
    auto dispatch_start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      Watch* w = static_cast<Watch*>(events[i].data.ptr);
      if (w == nullptr) {
        uint64_t v;
        while (::read(wake_fd_, &v, sizeof(v)) > 0) {
        }
        continue;
      }
      if (!w->dead) w->cb(events[i].events);
    }
    auto dispatch_end = std::chrono::steady_clock::now();
    dispatch_us_->Record(std::chrono::duration<double, std::micro>(
                             dispatch_end - dispatch_start)
                             .count());
    if (n == static_cast<int>(events.size()) && events.size() < 4096) {
      events.resize(events.size() * 2);
    }
  }
  // Final drain: completion callbacks posted between the last DrainPosts
  // and the stop flag becoming visible must still run (they release
  // connection references).
  RunExpiredTimers();
  DrainPosts();
  for (Watch* w : graveyard_) delete w;
  graveyard_.clear();
}

EventLoopGroup::EventLoopGroup(size_t threads) {
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = std::min<unsigned>(hw == 0 ? 2 : hw, 8);
  }
  loops_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(static_cast<int>(i)));
  }
}

Status EventLoopGroup::Start() {
  for (auto& l : loops_) HQ_RETURN_IF_ERROR(l->Start());
  return Status::OK();
}

void EventLoopGroup::Stop() {
  for (auto& l : loops_) l->Stop();
}

EventConn::~EventConn() = default;

Status EventConn::Register() {
  HQ_RETURN_IF_ERROR(conn_.SetNonBlocking(true));
  interest_ = EPOLLIN;
  last_activity_ = std::chrono::steady_clock::now();
  watch_ = loop_->AddWatch(
      conn_.fd(), interest_,
      [this](uint32_t ev) { HandleEvents(ev); });
  if (watch_ == nullptr) return NetworkError("epoll registration failed");
  return Status::OK();
}

void EventConn::Close() {
  if (closed_) return;
  // OnClosed() typically drops the owner's reference; pin ourselves so the
  // object outlives this frame even when called from a raw-`this` timer.
  std::shared_ptr<EventConn> self =
      weak_from_this().expired() ? nullptr : shared_from_this();
  closed_ = true;
  if (watch_ != nullptr) {
    loop_->RemoveWatch(watch_);
    watch_ = nullptr;
  }
  conn_.Close();
  outq_.clear();
  outq_head_ = 0;
  OnClosed();
}

void EventConn::OnError(const Status& error) {
  (void)error;
  Close();
}

void EventConn::PauseReads() {
  if (reads_paused_ || closed_) return;
  reads_paused_ = true;
  UpdateInterest();
}

void EventConn::ResumeReads() {
  if (!reads_paused_ || closed_) return;
  reads_paused_ = false;
  UpdateInterest();
}

void EventConn::UpdateInterest() {
  uint32_t want = 0;
  if (!reads_paused_) want |= EPOLLIN;
  if (write_pending()) want |= EPOLLOUT;
  if (want != interest_) {
    interest_ = want;
    loop_->ModifyWatch(watch_, want);
  }
}

void EventConn::ConsumeTo(size_t pos) {
  rpos_ = pos;
  if (rpos_ >= rbuf_.size()) {
    rbuf_.clear();
    rpos_ = 0;
    if (rbuf_.capacity() > kReadBufferKeepBytes) rbuf_.shrink_to_fit();
  } else if (rpos_ > (64u << 10)) {
    // A large consumed prefix in front of a small tail: slide the tail
    // down so the buffer does not grow without bound under pipelining.
    rbuf_.erase(rbuf_.begin(),
                rbuf_.begin() + static_cast<ptrdiff_t>(rpos_));
    rpos_ = 0;
  }
}

void EventConn::HandleEvents(uint32_t events) {
  // The server's map may drop its reference from OnClosed() while this
  // frame is still on the stack — pin ourselves for the duration.
  std::shared_ptr<EventConn> self = shared_from_this();
  if (closed_) return;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && !write_pending()) {
    // Half-closed peers that still owe us reads are handled by the read
    // path seeing EOF; a bare HUP/ERR with nothing to flush is terminal.
    if ((events & EPOLLIN) == 0) {
      OnPeerClosed();
      return;
    }
  }
  if ((events & EPOLLOUT) != 0) {
    if (!FlushWrites()) return;
  }
  if ((events & EPOLLIN) != 0 && !reads_paused_) {
    ReadCycle();
  }
}

void EventConn::ReadCycle() {
  size_t total = 0;
  bool got_any = false;
  bool eof = false;
  while (total < kMaxReadPerCycle) {
    size_t n = 0;
    Status status;
    TcpConnection::IoOutcome out =
        conn_.ReadSomeInto(loop_->scratch(), loop_->scratch_size(), &n,
                           &status);
    if (out == TcpConnection::IoOutcome::kError) {
      OnError(status);
      return;
    }
    if (out == TcpConnection::IoOutcome::kWouldBlock) break;
    if (out == TcpConnection::IoOutcome::kEof) {
      eof = true;
      break;
    }
    rbuf_.insert(rbuf_.end(), loop_->scratch(), loop_->scratch() + n);
    total += n;
    got_any = true;
    if (n < loop_->scratch_size()) break;  // socket drained
  }
  if (got_any) {
    last_activity_ = std::chrono::steady_clock::now();
    OnData();
    if (closed_) return;
  }
  if (eof) OnPeerClosed();
}

void EventConn::Send(Outgoing out) {
  if (closed_) return;
  if (out.slices.empty()) return;
  bool was_idle = !write_pending();
  outq_.push_back(std::move(out));
  if (was_idle) {
    if (!FlushWrites()) return;
  } else {
    UpdateInterest();
  }
}

bool EventConn::FlushWrites() {
  while (outq_head_ < outq_.size()) {
    Outgoing& cur = outq_[outq_head_];
    Status status;
    TcpConnection::IoOutcome out =
        conn_.WriteSomeV(cur.slices.data(), cur.slices.size(), &cur.idx,
                         &cur.off, &status);
    if (out == TcpConnection::IoOutcome::kError) {
      OnError(status);
      return false;
    }
    if (out == TcpConnection::IoOutcome::kWouldBlock) {
      UpdateInterest();
      return true;
    }
    ++outq_head_;
    if (outq_head_ == outq_.size()) {
      outq_.clear();
      outq_head_ = 0;
    }
  }
  last_activity_ = std::chrono::steady_clock::now();
  UpdateInterest();
  OnWriteDrained();
  return !closed_;
}

}  // namespace hyperq
