// Seeded overload soak for the resilience stack: several serving threads
// hammer deadline-bounded queries through one shared admission
// controller, and a durable engine checkpoints through a periodic
// transient-fault storm. The contract under load:
//
//   - every offered query is accounted for (answered + shed = offered),
//   - nothing hangs (the whole soak finishes inside a wall-clock budget),
//   - shedding stays bounded (the controller rejects overflow, not all),
//   - transient faults are retried invisibly — no data loss, no crash.
//
// The quick mode runs in the regular ctest sweep; PDR_SOAK=full — the CI
// soak lane — scales up iterations and rounds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "pdr/core/fr_engine.h"
#include "pdr/core/pa_engine.h"
#include "pdr/mobility/generator.h"
#include "pdr/obs/obs.h"
#include "pdr/resilience/admission.h"
#include "pdr/resilience/deadline.h"
#include "pdr/resilience/executor.h"
#include "pdr/storage/fault_injector.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;
constexpr double kL = 25.0;
constexpr Tick kHorizon = 20;

bool FullSoak() {
  const char* env = std::getenv("PDR_SOAK");
  return env != nullptr && std::string(env) == "full";
}

FrEngine::Options FrOpts() {
  return {.extent = kExtent,
          .histogram_side = 16,
          .horizon = kHorizon,
          .buffer_pages = 64,
          .io_ms = 10.0};
}

PaEngine::Options PaOpts() {
  return {.extent = kExtent,
          .poly_side = 4,
          .degree = 5,
          .horizon = kHorizon,
          .l = kL,
          .eval_grid = 64};
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pdr_soak_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    dir_ = dir != nullptr ? dir : "/tmp";
  }
  ~TempDir() { std::system(("rm -rf '" + dir_ + "'").c_str()); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

TEST(ResilienceSoakTest, OverloadedServingLoopShedsButNeverHangs) {
  const bool full = FullSoak();
  const int kThreads = 4;
  const int kPerThread = full ? 300 : 50;
  const int kMaxInflight = 2;
  const auto wall_budget = std::chrono::seconds(full ? 300 : 120);
  const auto start = std::chrono::steady_clock::now();

  const std::vector<UpdateEvent> events =
      MakeClusteredInserts(200, 2, kExtent, 10.0, 0.2, /*seed=*/11);
  const double rho = 1.5 * 200 / (kExtent * kExtent);

  AdmissionController admission({.max_inflight = kMaxInflight});
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> tier_counts[4] = {{0}, {0}, {0}, {0}};
  std::atomic<int> max_live{0};
  std::atomic<int> live{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Engines are not shared across query threads: each serving loop
      // owns a replica fed the identical update stream.
      FrEngine fr(FrOpts());
      PaEngine pa(PaOpts());
      for (const UpdateEvent& e : events) {
        fr.Apply(e);
        pa.Apply(e);
      }
      for (int i = 0; i < kPerThread; ++i) {
        AdmissionController::Permit permit = admission.TryAdmit();
        if (!permit.ok()) {
          shed.fetch_add(1);
          std::this_thread::yield();  // back off, retry next query
          continue;
        }
        const int now_live = live.fetch_add(1) + 1;
        int prev = max_live.load();
        while (now_live > prev && !max_live.compare_exchange_weak(prev, now_live)) {
        }
        // Deterministic per-(thread, i) deadline schedule mixing generous
        // budgets (exact tier), pre-expired ones (histogram floor), and
        // tight-but-plausible ones (whatever rung the clock allows).
        const int mode = (t + i) % 3;
        const double deadline_ms = mode == 0 ? 1e9 : mode == 1 ? 1e-6 : 2.0;
        ResilientExecutor exec(&fr, &pa, {.deadline_ms = deadline_ms});
        const Tick q_t = static_cast<Tick>(i % (kHorizon + 1));
        const TieredResult result = exec.Query(q_t, rho, kL);
        tier_counts[static_cast<int>(result.tier)].fetch_add(1);
        answered.fetch_add(1);
        live.fetch_sub(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const int64_t offered = static_cast<int64_t>(kThreads) * kPerThread;
  EXPECT_EQ(answered.load() + shed.load(), offered);
  EXPECT_EQ(admission.admitted(), answered.load());
  EXPECT_EQ(admission.shed(), shed.load());
  EXPECT_EQ(admission.inflight(), 0);  // every permit was released
  EXPECT_LE(max_live.load(), kMaxInflight);
  // Overload must shed *some* but the loop keeps making progress: under
  // 4 threads against 2 slots, at most ~90% may bounce.
  EXPECT_LT(admission.ShedRate(), 0.9) << "serving loop starved";
  EXPECT_GT(answered.load(), 0);
  // Every answered query landed on a real rung.
  EXPECT_EQ(tier_counts[0].load() + tier_counts[1].load() +
                tier_counts[2].load(),
            answered.load());
  EXPECT_EQ(tier_counts[3].load(), 0);  // kShed is stamped by callers only
  // Generous budgets answer exact; pre-expired ones hit the floor.
  EXPECT_GT(tier_counts[0].load(), 0);
  EXPECT_GT(tier_counts[2].load(), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - start, wall_budget)
      << "soak exceeded its wall-clock budget";
}

TEST(ResilienceSoakTest, TransientFaultStormDoesNotLoseDataOrHang) {
  const bool full = FullSoak();
  const int kRounds = full ? 12 : 4;
  const bool was_enabled = PdrObs::Enabled();
  PdrObs::SetEnabled(true);
  Counter& retries =
      MetricsRegistry::Global().GetCounter("pdr.storage.transient_retries");
  const int64_t retries_before = retries.value();

  const std::vector<UpdateEvent> events =
      MakeClusteredInserts(40 * kRounds, 2, kExtent, 10.0, 0.2, /*seed=*/23);
  const double rho = 1.5 * 200 / (kExtent * kExtent);

  TempDir dir;
  FaultInjector injector;
  // Two consecutive failures out of every seven fault points, for the
  // whole run: every checkpoint round ploughs through several faults.
  injector.ArmTransientEvery(/*period=*/7, /*failures=*/2);
  FrEngine::Options opts = FrOpts();
  opts.storage_dir = dir.path();
  opts.fault_injector = &injector;

  Region final_answer;
  {
    FrEngine fr(opts);
    ResilientExecutor exec(&fr, nullptr, {.deadline_ms = 1e9});
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < 40; ++i) {
        fr.Apply(events[static_cast<size_t>(round * 40 + i)]);
      }
      ASSERT_NO_THROW(fr.Checkpoint()) << "round " << round;
      // Deadline-bounded queries interleave with the faulting
      // checkpoints; queries never touch storage fault points.
      const TieredResult result = exec.Query(0, rho, kL);
      EXPECT_EQ(result.tier, AnswerTier::kExact);
      final_answer = result.region;
    }
    EXPECT_GT(injector.transient_fired(), 0);
    EXPECT_FALSE(injector.fired()) << "transient fault escalated to a crash";
    if (PdrObs::CompiledIn()) {
      EXPECT_EQ(retries.value() - retries_before, injector.transient_fired());
    }
  }

  // Reopen fault-free: a normal checkpointed store with nothing lost.
  injector.DisarmTransient();
  FrEngine recovered(opts);
  EXPECT_TRUE(recovered.recovered());
  const Region after = recovered.Query(0, rho, kL).region;
  ASSERT_EQ(after.size(), final_answer.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after.rects()[i].x_lo, final_answer.rects()[i].x_lo);
    EXPECT_EQ(after.rects()[i].x_hi, final_answer.rects()[i].x_hi);
    EXPECT_EQ(after.rects()[i].y_lo, final_answer.rects()[i].y_lo);
    EXPECT_EQ(after.rects()[i].y_hi, final_answer.rects()[i].y_hi);
  }
  PdrObs::SetEnabled(was_enabled);
}

}  // namespace
}  // namespace pdr
