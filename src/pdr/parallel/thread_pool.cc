#include "pdr/parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>

#include "pdr/obs/flight_recorder.h"

namespace pdr {
namespace {

// Process-wide task sequence for flight-recorder kTaskRun events.
std::atomic<int64_t> g_task_seq{0};

}  // namespace

int ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = HardwareThreads();
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  assert(queue_.empty() && "graceful shutdown drains the queue");
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  Task task;
  task.fn = std::packaged_task<void()>(std::move(fn));
  task.query_id = FlightRecorder::CurrentQueryId();
  std::future<void> f = task.fn.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(!stop_ && "Submit on a pool that is shutting down");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return f;
}

bool ThreadPool::PopTask(Task* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void ThreadPool::RunTask(Task& task) {
  FlightRecorder::QueryScope query_scope(task.query_id);
  if (FlightRecorder::Enabled()) {
    FlightRecorder::Record(
        FrEvent::kTaskRun, g_task_seq.fetch_add(1, std::memory_order_relaxed));
  }
  task.fn();  // packaged_task captures exceptions into the future
}

bool ThreadPool::RunOnePending() {
  Task task;
  if (!PopTask(&task)) return false;
  RunTask(task);
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(task);
  }
}

void ThreadPool::Wait(std::future<void>& f) {
  using namespace std::chrono_literals;
  while (f.wait_for(0s) != std::future_status::ready) {
    if (!RunOnePending()) {
      // Nothing to steal: the task is running elsewhere; block briefly so
      // tasks enqueued meanwhile are still picked up by this thread.
      f.wait_for(100us);
    }
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body,
                             const QueryControl* ctl) {
  if (n <= 0) return;
  // Runner tasks (plus the calling thread) pull indices from one shared
  // counter: every index in [0, n) is claimed exactly once. The caller
  // always participates, so progress never depends on worker availability
  // — the nested-use guarantee.
  const int64_t runners =
      std::min<int64_t>(static_cast<int64_t>(thread_count()), n - 1);
  std::atomic<int64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::once_flag error_once;

  const auto run = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        // Cancellation point: a cancelled query stops claiming indices on
        // every runner; started bodies finish, the rest never run.
        if (ctl != nullptr) ctl->Check();
        const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i);
      } catch (...) {
        std::call_once(error_once,
                       [&] { first_error = std::current_exception(); });
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::future<void>> fs;
  fs.reserve(static_cast<size_t>(runners));
  for (int64_t r = 0; r < runners; ++r) fs.push_back(Submit(run));
  run();
  // Stealing in Wait may execute unstarted runner tasks inline; they see
  // the exhausted counter and return immediately.
  for (std::future<void>& f : fs) Wait(f);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pdr
