#include "pdr/parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pdr {
namespace {

TEST(ThreadPoolTest, ConstructAndDestroyIdle) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
  }
}

TEST(ThreadPoolTest, ClampsNonPositiveToHardware) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), ThreadPool::HardwareThreads());
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto f = pool.Submit([&] { ran.fetch_add(1); });
  pool.Wait(f);
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // Flood with more tasks than the single worker can start immediately;
    // graceful shutdown must still run every one.
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, SubmitExceptionSurfacesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Wait(f);
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 4}) {
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{1000}}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      pool.ParallelFor(n, [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
      });
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "index " << i << " with " << threads << " threads, n=" << n;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](int64_t i) {
                                  ran.fetch_add(1);
                                  if (i == 3) throw std::logic_error("bad");
                                }),
               std::logic_error);
  // Unstarted indices are abandoned after the failure, so the count is
  // anywhere between 1 (thrower only) and 100.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 100);
}

// Regression: waiting on a submitted task from inside a pool task used to
// deadlock a single-worker pool (the only worker blocks on work that has
// no thread left to run it). Help-first stealing makes it finish.
TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlockSingleWorker) {
  ThreadPool pool(1);
  std::atomic<int> inner_ran{0};
  auto outer = pool.Submit([&] {
    auto inner = pool.Submit([&] { inner_ran.fetch_add(1); });
    pool.Wait(inner);
  });
  pool.Wait(outer);
  EXPECT_EQ(inner_ran.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(8, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, RunOnePendingStealsFromQueue) {
  ThreadPool pool(1);
  // Park the worker so the queue backs up. Wait until the worker has
  // actually begun the parking task — otherwise RunOnePending below could
  // steal it instead and spin on `release` forever.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto parked = pool.Submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<int> ran{0};
  auto queued = pool.Submit([&] { ran.fetch_add(1); });
  while (!pool.RunOnePending()) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 1);
  release.store(true);
  pool.Wait(parked);
  pool.Wait(queued);
}

// TSan stress: many tasks hammering shared atomics plus ParallelFor
// overlap. Runs under every build; only the TSan configuration turns
// latent races into failures.
TEST(ThreadPoolTest, StressManySmallTasks) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  std::vector<std::future<void>> fs;
  fs.reserve(200);
  for (int i = 0; i < 200; ++i) {
    fs.push_back(pool.Submit([&sum, i] { sum.fetch_add(i); }));
  }
  pool.ParallelFor(500, [&](int64_t) { sum.fetch_add(1); });
  for (auto& f : fs) pool.Wait(f);
  EXPECT_EQ(sum.load(), 199 * 200 / 2 + 500);
}

// --------------------------------------------------------------------------
// Cooperative cancellation (resilience/deadline.h): runners observe the
// QueryControl between items, so a cancelled ParallelFor drains without
// running the remaining work — and the pool stays fully usable after.

TEST(ThreadPoolTest, ParallelForPreCancelledRunsNoBodies) {
  ThreadPool pool(4);
  CancelToken token;
  token.Cancel();
  QueryControl ctl;
  ctl.token = &token;
  std::atomic<int64_t> executed{0};
  EXPECT_THROW(
      pool.ParallelFor(1000, [&](int64_t) { executed.fetch_add(1); }, &ctl),
      CancelledError);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPoolTest, ParallelForCancelledMidwayDrainsRemainingWork) {
  ThreadPool pool(4);
  CancelToken token;
  QueryControl ctl;
  ctl.token = &token;
  constexpr int64_t kN = 100000;
  std::atomic<int64_t> executed{0};
  std::vector<std::atomic<int>> seen(kN);
  EXPECT_THROW(pool.ParallelFor(
                   kN,
                   [&](int64_t i) {
                     seen[static_cast<size_t>(i)].fetch_add(1);
                     executed.fetch_add(1);
                     token.Cancel();  // first body to run cancels the query
                   },
                   &ctl),
               CancelledError);
  // Every runner checks the token before claiming its next index, so at
  // most one in-flight body per runner (4 workers + the caller) completes
  // after the cancel — the rest of the range is never touched.
  EXPECT_LT(executed.load(), 64);
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_LE(seen[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, PoolUsableAndDestructibleAfterCancelledParallelFor) {
  std::atomic<int64_t> late_tasks{0};
  {
    ThreadPool pool(2);
    CancelToken token;
    token.Cancel();
    QueryControl ctl;
    ctl.token = &token;
    // Pending Submit work next to a cancelled ParallelFor: the cancelled
    // loop must not poison the queue or the workers.
    std::vector<std::future<void>> fs;
    for (int i = 0; i < 16; ++i) {
      fs.push_back(pool.Submit([&] { late_tasks.fetch_add(1); }));
    }
    EXPECT_THROW(pool.ParallelFor(64, [](int64_t) {}, &ctl), CancelledError);
    std::atomic<int64_t> after{0};
    pool.ParallelFor(64, [&](int64_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 64);
    for (int i = 0; i < 16; ++i) {
      fs.push_back(pool.Submit([&] { late_tasks.fetch_add(1); }));
    }
    // Destroy with whatever is still queued: the destructor drains.
  }
  EXPECT_EQ(late_tasks.load(), 32);
}

TEST(ThreadPoolTest, CancelFromAnotherThreadIsObservedByAllWorkers) {
  ThreadPool pool(4);
  CancelToken token;
  QueryControl ctl;
  ctl.token = &token;
  std::atomic<int64_t> executed{0};
  // An external controller thread — not a ParallelFor runner — cancels
  // while the loop runs; the relaxed sticky flag must still become visible
  // to every runner at its next check.
  std::thread controller([&] {
    while (executed.load() == 0) std::this_thread::yield();
    token.Cancel();
  });
  try {
    pool.ParallelFor(
        1 << 20,
        [&](int64_t) {
          executed.fetch_add(1);
          std::this_thread::yield();
        },
        &ctl);
    ADD_FAILURE() << "expected cancellation";
  } catch (const CancelledError&) {
  }
  controller.join();
  EXPECT_LT(executed.load(), 1 << 20);
}

}  // namespace
}  // namespace pdr
