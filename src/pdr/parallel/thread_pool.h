// Small fork/join thread pool for the query engines.
//
// Design goals, in order: correctness under ThreadSanitizer, deadlock
// freedom under nested use, and deterministic fan-out for the engines'
// per-cell query stages. A fixed set of workers pulls tasks from one
// mutex-guarded deque; blocked waiters *steal* pending tasks and run them
// inline instead of sleeping (help-first scheduling), which is what makes
// nested Submit/ParallelFor safe even on a single-worker pool: the thread
// that waits drains the queue itself, so no task can wait on work that has
// no thread left to run it.
//
// Query attribution: Submit and ParallelFor capture the calling thread's
// flight-recorder query id and install it (FlightRecorder::QueryScope) on
// whichever thread executes the task, so one query's fan-out carries one
// id across threads.
//
// Shutdown is graceful: the destructor lets the workers drain every task
// already queued, then joins them. Tasks submitted after shutdown begins
// are rejected by assertion.

#ifndef PDR_PARALLEL_THREAD_POOL_H_
#define PDR_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "pdr/resilience/deadline.h"

namespace pdr {

class ThreadPool {
 public:
  /// Spawns `threads` workers (values < 1 are clamped to 1;
  /// 0 means "hardware concurrency", matching ExecPolicy).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. The future carries any exception the task throws.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs body(i) for every i in [0, n) exactly once, fanning out over the
  /// workers with the calling thread participating. Returns when every
  /// started index has finished. If a body throws, remaining unstarted
  /// indices are abandoned and the first exception is rethrown here.
  ///
  /// With a non-null active `ctl`, every runner polls the control before
  /// claiming its next index: a cancelled or deadline-expired query stops
  /// claiming work, the loop drains (started indices finish, unstarted
  /// ones are never run), and CancelledError is rethrown on the calling
  /// thread. Bodies may additionally check the control themselves at
  /// finer granularity.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body,
                   const QueryControl* ctl = nullptr);

  /// Steals one queued task and runs it on the calling thread; false when
  /// the queue is empty. Public so blocked code can lend a hand.
  bool RunOnePending();

  /// Blocks until `f` is ready, stealing queued tasks meanwhile (the
  /// deadlock-free way to wait on pool work from inside pool work).
  void Wait(std::future<void>& f);

  /// max(1, std::thread::hardware_concurrency()).
  static int HardwareThreads();

 private:
  struct Task {
    std::packaged_task<void()> fn;
    uint32_t query_id = 0;  ///< submitter's flight-recorder attribution
  };

  void WorkerLoop();
  bool PopTask(Task* out);
  static void RunTask(Task& task);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pdr

#endif  // PDR_PARALLEL_THREAD_POOL_H_
