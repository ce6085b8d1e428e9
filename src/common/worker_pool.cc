#include "common/worker_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/fault.h"

namespace hyperq {

namespace {

thread_local bool tls_on_worker = false;

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("HYPERQ_EXEC_THREADS")) {
    long v = std::atol(env);
    if (v >= 1) return static_cast<size_t>(std::min<long>(v, 64)) - 1;
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  // The caller participates, so spawn one fewer thread than the target
  // parallelism, capped to keep a shared box friendly.
  return std::min<unsigned>(hw, 16) - 1;
}

}  // namespace

WorkerPool::WorkerPool(size_t threads) { StartWorkers(threads); }

WorkerPool::~WorkerPool() { StopWorkers(); }

WorkerPool& WorkerPool::Shared() {
  // Leaked: outlives all users.
  static WorkerPool* pool = new WorkerPool(DefaultThreadCount());
  return *pool;
}

bool WorkerPool::OnWorkerThread() { return tls_on_worker; }

size_t WorkerPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void WorkerPool::StartWorkers(size_t threads) {
  std::lock_guard<std::mutex> lock(mu_);
  stop_ = false;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void WorkerPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers_.clear();
  }
}

void WorkerPool::Resize(size_t threads) {
  StopWorkers();
  StartWorkers(threads);
}

void WorkerPool::RunShare(Job* job) {
  for (;;) {
    size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->n) return;
    // pool.task honors delay actions only (a task function cannot fail, so
    // an armed error at this site is a no-op by design). Delays here model
    // a straggler worker; morsel merges must stay byte-identical under
    // arbitrary scheduling skew.
    (void)CheckFault("pool.task");
    (*job->fn)(i);
    job->done.fetch_add(1, std::memory_order_acq_rel);
  }
}

void WorkerPool::WorkerLoop() {
  tls_on_worker = true;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return stop_ || job_ != nullptr; });
      if (stop_) return;
      job = job_;
      // Entry is counted under mu_ so the submitter, which clears job_
      // while holding mu_, can never miss a worker that is inside the job.
      job->entered.fetch_add(1, std::memory_order_relaxed);
    }
    RunShare(job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Exit is counted under mu_ too: the submitter evaluates its wait
      // predicate under mu_, so an increment outside it could land between
      // that check and the submitter's sleep, and the notify would be lost.
      job->exited.fetch_add(1, std::memory_order_release);
      job_done_.notify_one();
      wake_.wait(lock, [this, job] { return stop_ || job_ != job; });
      if (stop_) return;
    }
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  bool inline_only = n == 1 || tls_on_worker || thread_count() == 0;
  // Only one job is in flight at a time; a ParallelFor that would have to
  // queue runs inline instead, so concurrent queries never block each other.
  std::unique_lock<std::mutex> submit(submit_mu_, std::defer_lock);
  if (!inline_only) inline_only = !submit.try_lock();
  if (inline_only) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Job job;
  job.n = n;
  job.fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
  }
  wake_.notify_all();
  RunShare(&job);  // the caller works too
  {
    std::unique_lock<std::mutex> lock(mu_);
    // All indices done AND no worker still inside RunShare: only then is
    // the stack-allocated job safe to destroy.
    job_done_.wait(lock, [&job] {
      return job.done.load(std::memory_order_acquire) >= job.n &&
             job.entered.load(std::memory_order_relaxed) ==
                 job.exited.load(std::memory_order_acquire);
    });
    job_ = nullptr;
  }
  wake_.notify_all();  // release workers parked on `job_ != job`
}

TaskPool::TaskPool(size_t threads) {
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = std::min<unsigned>(hw == 0 ? 4 : hw, 8);
  }
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { Loop(); });
  }
}

TaskPool::~TaskPool() { Stop(); }

bool TaskPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return false;
    queue_.push_back(std::move(fn));
  }
  wake_.notify_one();
  return true;
}

void TaskPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ && threads_.empty()) return;
    stopped_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

size_t TaskPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() - head_;
}

void TaskPool::Loop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return stopped_ || head_ < queue_.size(); });
      if (head_ >= queue_.size()) return;  // stopped and drained
      fn = std::move(queue_[head_]);
      ++head_;
      if (head_ == queue_.size()) {
        queue_.clear();
        head_ = 0;
      }
    }
    fn();
  }
}

}  // namespace hyperq
