#ifndef HYPERQ_COMMON_WORKER_POOL_H_
#define HYPERQ_COMMON_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hyperq {

/// A shared pool of worker threads for morsel-driven parallelism (the
/// backend executor splits scans, filters and partial aggregations into
/// fixed-size morsels and fans them out here).
///
/// Design constraints, in order:
///   - Determinism is the caller's job: ParallelFor only promises that every
///     index in [0, n) runs exactly once before it returns. Callers keep
///     results keyed by index and merge in index order.
///   - No surprise nesting: a task that itself calls ParallelFor runs the
///     nested loop inline on its own thread (the pool never re-enters
///     itself, so there is no deadlock and no thread explosion).
///   - No surprise blocking across queries: if another ParallelFor is in
///     flight, a new call simply runs inline instead of queueing behind it.
///     Concurrent sessions degrade to sequential execution, never stall.
///
/// The caller always participates in its own loop, so a pool of N threads
/// yields N+1-way parallelism and ParallelFor works (sequentially) even on
/// a pool with zero threads.
class WorkerPool {
 public:
  /// Starts `threads` pool threads; 0 means none (every ParallelFor runs
  /// inline on its caller), the same as Resize(0).
  explicit WorkerPool(size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The process-wide pool the executor uses, sized from the hardware (and
  /// the HYPERQ_EXEC_THREADS environment variable, if set).
  static WorkerPool& Shared();

  /// Runs fn(i) for every i in [0, n) and returns when all calls finished.
  /// Order and thread assignment are unspecified; fn must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Stops all workers and restarts with the new count. Not safe to call
  /// concurrently with ParallelFor; intended for benchmarks and tests.
  void Resize(size_t threads);

  /// Number of pool threads (excluding the calling thread).
  size_t thread_count() const;

  /// True on a thread currently executing a pool task.
  static bool OnWorkerThread();

 private:
  struct Job {
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<size_t> entered{0};
    std::atomic<size_t> exited{0};
  };

  void StartWorkers(size_t threads);
  void StopWorkers();
  void WorkerLoop();
  static void RunShare(Job* job);

  mutable std::mutex mu_;            // guards workers_/job_/stop_
  std::condition_variable wake_;     // workers wait here for a job
  std::condition_variable job_done_; // the submitter waits here
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  bool stop_ = false;
  std::mutex submit_mu_;  // one ParallelFor in flight; others run inline
};

/// A small FIFO task executor for asynchronous work units (one queued query
/// execution per task). Distinct from WorkerPool on purpose: ParallelFor
/// blocks its caller and marks pool threads as worker threads (forcing
/// nested loops inline), so running whole queries *on* the WorkerPool would
/// serialize their morsel fan-out. TaskPool threads are plain threads — a
/// task that calls into the executor still gets full morsel parallelism
/// from the shared WorkerPool.
class TaskPool {
 public:
  /// threads == 0 picks a small default from the hardware.
  explicit TaskPool(size_t threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues fn; returns false after Stop() (the task is dropped — callers
  /// own any cleanup, e.g. failing the originating connection).
  bool Submit(std::function<void()> fn);

  /// Rejects new tasks, runs everything already queued, joins all threads.
  /// Idempotent.
  void Stop();

  /// Tasks queued but not yet started (load-shedding signal).
  size_t queue_depth() const;

  size_t thread_count() const { return threads_.size(); }

 private:
  void Loop();

  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::vector<std::function<void()>> queue_;  // FIFO via head_ cursor
  size_t head_ = 0;
  bool stopped_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace hyperq

#endif  // HYPERQ_COMMON_WORKER_POOL_H_
