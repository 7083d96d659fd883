// Deadline-aware execution: cooperative cancellation primitives, typed
// horizon validation, admission control, the graceful-degradation ladder,
// transient-fault retry, and the monitor's resilience integration.
//
// Tier tests reach each rung *deterministically* via the enable_exact
// toggle and by attaching (or not) the FFT and PA engines (and via
// pre-expired deadlines, which the engines detect at their entry
// cancellation point) — no timing races.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pdr/core/fr_engine.h"
#include "pdr/core/monitor.h"
#include "pdr/core/oracle.h"
#include "pdr/core/pa_engine.h"
#include "pdr/fft/fft_engine.h"
#include "pdr/mobility/generator.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/obs/audit.h"
#include "pdr/obs/flight_recorder.h"
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

std::vector<UpdateEvent> Workload(int objects = 200, uint64_t seed = 7) {
  return MakeClusteredInserts(objects, 2, kExtent, 10.0, 0.2, seed);
}

double WorkloadRho(int objects = 200) {
  return 1.5 * objects / (kExtent * kExtent);
}

bool SameRects(const Region& a, const Region& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const Rect& ra = a.rects()[i];
    const Rect& rb = b.rects()[i];
    if (ra.x_lo != rb.x_lo || ra.y_lo != rb.y_lo || ra.x_hi != rb.x_hi ||
        ra.y_hi != rb.y_hi) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Cancellation primitives.

TEST(ResilienceTest, UnarmedDeadlineNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMs(), 1e17);
  QueryControl ctl;
  EXPECT_FALSE(ctl.active());
  EXPECT_FALSE(ctl.ShouldCancel());
  EXPECT_NO_THROW(ctl.Check());
}

TEST(ResilienceTest, ArmedDeadlineExpiresAndReportsBudget) {
  const Deadline generous = Deadline::After(1e9);
  EXPECT_TRUE(generous.armed());
  EXPECT_FALSE(generous.Expired());
  EXPECT_GT(generous.RemainingMs(), 1e8);
  EXPECT_EQ(generous.budget_ms(), 1e9);

  const Deadline expired = Deadline::After(0.0);
  EXPECT_TRUE(expired.Expired());
  EXPECT_EQ(expired.RemainingMs(), 0.0);

  QueryControl ctl;
  ctl.deadline = expired;
  EXPECT_TRUE(ctl.active());
  EXPECT_TRUE(ctl.ShouldCancel());
  EXPECT_THROW(ctl.Check(), CancelledError);
}

TEST(ResilienceTest, CancelTokenIsStickyAndObservedByControl) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  QueryControl ctl;
  ctl.token = &token;
  EXPECT_TRUE(ctl.active());
  EXPECT_NO_THROW(ctl.Check());
  token.Cancel();
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(ctl.ShouldCancel());
  EXPECT_THROW(ctl.Check(), CancelledError);
}

// ---------------------------------------------------------------------------
// Horizon validation: out-of-window query times must fail loudly with the
// typed error (they used to be assert-only, i.e. silent in Release).

TEST(ResilienceTest, FrQueryOutsideHorizonThrowsHorizonError) {
  FrEngine fr(FrOpts());
  for (const UpdateEvent& e : Workload()) fr.Apply(e);
  fr.AdvanceTo(5);
  const double rho = WorkloadRho();

  EXPECT_NO_THROW(fr.Query(5, rho, kL));
  EXPECT_NO_THROW(fr.Query(5 + kHorizon, rho, kL));
  EXPECT_THROW(fr.Query(4, rho, kL), HorizonError);
  EXPECT_THROW(fr.Query(5 + kHorizon + 1, rho, kL), HorizonError);
  EXPECT_THROW(fr.DhOnlyQuery(4, rho, kL, false), HorizonError);
  EXPECT_THROW(fr.QueryInterval(5, 5 + kHorizon + 1, rho, kL), HorizonError);

  try {
    fr.Query(5 + kHorizon + 3, rho, kL);
    FAIL() << "expected HorizonError";
  } catch (const HorizonError& e) {
    EXPECT_EQ(e.q_t(), 5 + kHorizon + 3);
    EXPECT_EQ(e.now(), 5);
    EXPECT_EQ(e.horizon(), kHorizon);
  }
}

TEST(ResilienceTest, PaQueryOutsideHorizonThrowsHorizonError) {
  PaEngine pa(PaOpts());
  for (const UpdateEvent& e : Workload()) pa.Apply(e);
  pa.AdvanceTo(3);
  const double rho = WorkloadRho();

  EXPECT_NO_THROW(pa.Query(3, rho));
  EXPECT_NO_THROW(pa.Query(3 + kHorizon, rho));
  EXPECT_THROW(pa.Query(2, rho), HorizonError);
  EXPECT_THROW(pa.Query(3 + kHorizon + 1, rho), HorizonError);
  EXPECT_THROW(pa.QueryInterval(2, 3, rho), HorizonError);
  EXPECT_THROW(pa.QueryGridScan(3 + kHorizon + 1, rho), HorizonError);
}

// ---------------------------------------------------------------------------
// Engines honor the control at their entry point: a pre-expired deadline
// cancels deterministically before any work runs.

TEST(ResilienceTest, EnginesCancelAtEntryOnPreExpiredDeadline) {
  FrEngine fr(FrOpts());
  PaEngine pa(PaOpts());
  for (const UpdateEvent& e : Workload()) {
    fr.Apply(e);
    pa.Apply(e);
  }
  const double rho = WorkloadRho();

  QueryControl ctl;
  ctl.deadline = Deadline::After(0.0);
  EXPECT_THROW(fr.Query(0, rho, kL, false, ctl), CancelledError);
  EXPECT_THROW(pa.Query(0, rho, ctl), CancelledError);

  CancelToken token;
  token.Cancel();
  QueryControl tctl;
  tctl.token = &token;
  EXPECT_THROW(fr.Query(0, rho, kL, false, tctl), CancelledError);
  EXPECT_THROW(pa.Query(0, rho, tctl), CancelledError);
}

// An active-but-generous control must not change the answer in any bit.
TEST(ResilienceTest, GenerousControlIsBitIdenticalToNoControl) {
  FrEngine fr(FrOpts());
  PaEngine pa(PaOpts());
  for (const UpdateEvent& e : Workload()) {
    fr.Apply(e);
    pa.Apply(e);
  }
  const double rho = WorkloadRho();

  const auto fr_plain = fr.Query(0, rho, kL);
  const auto pa_plain = pa.Query(0, rho);

  QueryControl ctl;
  ctl.deadline = Deadline::After(1e9);
  const auto fr_ctl = fr.Query(0, rho, kL, false, ctl);
  const auto pa_ctl = pa.Query(0, rho, ctl);

  EXPECT_TRUE(SameRects(fr_plain.region, fr_ctl.region));
  EXPECT_EQ(fr_plain.objects_fetched, fr_ctl.objects_fetched);
  EXPECT_EQ(fr_plain.sweep.dense_rects, fr_ctl.sweep.dense_rects);
  EXPECT_TRUE(SameRects(pa_plain.region, pa_ctl.region));
  EXPECT_EQ(pa_plain.bnb.nodes_visited, pa_ctl.bnb.nodes_visited);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(ResilienceTest, AdmissionBoundsInflightAndCountsSheds) {
  AdmissionController ac({.max_inflight = 2});
  auto p1 = ac.TryAdmit();
  auto p2 = ac.TryAdmit();
  EXPECT_TRUE(p1.ok());
  EXPECT_TRUE(p2.ok());
  EXPECT_EQ(ac.inflight(), 2);

  auto p3 = ac.TryAdmit();
  EXPECT_FALSE(p3.ok());
  EXPECT_EQ(ac.shed(), 1);
  EXPECT_EQ(ac.admitted(), 2);
  EXPECT_NEAR(ac.ShedRate(), 1.0 / 3.0, 1e-12);

  p1.Release();
  EXPECT_EQ(ac.inflight(), 1);
  auto p4 = ac.TryAdmit();
  EXPECT_TRUE(p4.ok());
  EXPECT_EQ(ac.inflight(), 2);
}

TEST(ResilienceTest, AdmissionPermitMoveTransfersTheSlot) {
  AdmissionController ac({.max_inflight = 1});
  auto p1 = ac.TryAdmit();
  ASSERT_TRUE(p1.ok());
  AdmissionController::Permit p2 = std::move(p1);
  EXPECT_FALSE(p1.ok());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(p2.ok());
  EXPECT_EQ(ac.inflight(), 1);
  {
    AdmissionController::Permit p3 = std::move(p2);
    EXPECT_EQ(ac.inflight(), 1);
  }  // p3 destructor releases
  EXPECT_EQ(ac.inflight(), 0);
  EXPECT_TRUE(ac.TryAdmit().ok());
}

TEST(ResilienceTest, AdmissionNeverExceedsBoundUnderContention) {
  constexpr int kBound = 3;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 500;
  AdmissionController ac({.max_inflight = kBound});
  std::atomic<int> live{0};
  std::atomic<int> max_live{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        auto permit = ac.TryAdmit();
        if (!permit.ok()) continue;
        const int now_live = live.fetch_add(1) + 1;
        int seen = max_live.load();
        while (now_live > seen &&
               !max_live.compare_exchange_weak(seen, now_live)) {
        }
        std::this_thread::yield();
        live.fetch_sub(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_LE(max_live.load(), kBound);
  EXPECT_EQ(ac.inflight(), 0);
  EXPECT_GT(ac.admitted(), 0);
  EXPECT_EQ(ac.admitted() + ac.shed(),
            static_cast<int64_t>(kThreads) * kItersPerThread);
}

// ---------------------------------------------------------------------------
// The degradation ladder.

struct LadderRig {
  FrEngine fr{FrOpts()};
  PaEngine pa{PaOpts()};
  double rho = WorkloadRho();

  LadderRig() {
    for (const UpdateEvent& e : Workload()) {
      fr.Apply(e);
      pa.Apply(e);
    }
  }
};

TEST(ResilienceTest, LadderAnswersExactWithinGenerousBudget) {
  LadderRig rig;
  ResilientExecutor exec(&rig.fr, &rig.pa, {.deadline_ms = 1e9});
  const TieredResult result = exec.Query(0, rig.rho, kL);
  EXPECT_EQ(result.tier, AnswerTier::kExact);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.budget_ms, 1e9);
  EXPECT_GE(result.elapsed_ms, 0.0);
  EXPECT_TRUE(result.maybe_region.IsEmpty());
  EXPECT_TRUE(SameRects(result.region, rig.fr.Query(0, rig.rho, kL).region));
}

TEST(ResilienceTest, LadderFallsBackToApproxWhenExactDisabled) {
  LadderRig rig;
  ResilientExecutor exec(&rig.fr, &rig.pa, {.enable_exact = false});
  const TieredResult result = exec.Query(0, rig.rho, kL);
  EXPECT_EQ(result.tier, AnswerTier::kApprox);
  EXPECT_TRUE(SameRects(result.region, rig.pa.Query(0, rig.rho).region));
}

TEST(ResilienceTest, LadderSkipsApproxOnMismatchedL) {
  LadderRig rig;
  ResilientExecutor exec(&rig.fr, &rig.pa, {.enable_exact = false});
  // PA's fixed l is kL; querying another l must not use the approx rung.
  const TieredResult result = exec.Query(0, rig.rho, kL + 5.0);
  EXPECT_EQ(result.tier, AnswerTier::kHistogram);
}

TEST(ResilienceTest, LadderHistogramFloorIsConservative) {
  LadderRig rig;
  ResilientExecutor exec(&rig.fr, nullptr, {.enable_exact = false});
  const TieredResult hist = exec.Query(0, rig.rho, kL);
  EXPECT_EQ(hist.tier, AnswerTier::kHistogram);

  const auto exact = rig.fr.Query(0, rig.rho, kL);
  // Pessimistic region: accepted cells only. Filter soundness (Algorithm
  // 1) makes every accepted cell genuinely dense, so the histogram answer
  // never claims density the exact answer lacks (no false accepts)...
  EXPECT_NEAR(RegionDifference(hist.region, exact.region).Area(), 0.0, 1e-9);
  // ...and the optimistic superset conservatively holds every dense point.
  EXPECT_NEAR(RegionDifference(exact.region, hist.maybe_region).Area(), 0.0,
              1e-9);
  EXPECT_GE(hist.maybe_region.Area(), hist.region.Area() - 1e-9);

  // Same bracketing against the brute-force oracle's ground truth, so
  // the conservativeness claim does not lean on the FR engine itself:
  // certainly-dense subset of truth subset of possibly-dense.
  Oracle oracle(kExtent);
  for (const UpdateEvent& e : Workload()) oracle.Apply(e);
  const Region truth = oracle.DenseRegions(0, rig.rho, kL);
  EXPECT_NEAR(RegionDifference(hist.region, truth).Area(), 0.0, 1e-9);
  EXPECT_NEAR(RegionDifference(truth, hist.maybe_region).Area(), 0.0, 1e-9);
}

TEST(ResilienceTest, LadderPreExpiredDeadlineDegradesToHistogram) {
  LadderRig rig;
  ResilientExecutor exec(&rig.fr, &rig.pa, {.deadline_ms = 1e-9});
  const TieredResult result = exec.Query(0, rig.rho, kL);
  // Both deadline-controlled rungs cancel at their entry point; the
  // histogram floor still delivers a conservative answer.
  EXPECT_EQ(result.tier, AnswerTier::kHistogram);
  EXPECT_TRUE(result.timed_out);
  const auto exact = rig.fr.Query(0, rig.rho, kL);
  EXPECT_NEAR(RegionDifference(result.region, exact.region).Area(), 0.0,
              1e-9);
}

TEST(ResilienceTest, LadderWithoutDegradePropagatesCancellation) {
  LadderRig rig;
  ResilientExecutor exec(&rig.fr, &rig.pa,
                         {.deadline_ms = 1e-9, .degrade = false});
  EXPECT_THROW(exec.Query(0, rig.rho, kL), CancelledError);
}

TEST(ResilienceTest, LadderHonorsExternalCancelToken) {
  LadderRig rig;
  ResilientExecutor exec(&rig.fr, &rig.pa, {.deadline_ms = 1e9});
  CancelToken token;
  token.Cancel();
  const TieredResult result = exec.Query(0, rig.rho, kL, &token);
  EXPECT_EQ(result.tier, AnswerTier::kHistogram);
  EXPECT_TRUE(result.timed_out);
}

TEST(ResilienceTest, LadderValidatesHorizonBeforeDegrading) {
  LadderRig rig;
  ResilientExecutor exec(&rig.fr, &rig.pa, {.deadline_ms = 1e9});
  EXPECT_THROW(exec.Query(kHorizon + 1, rig.rho, kL), HorizonError);
}

// ---------------------------------------------------------------------------
// The FFT rung: ladder placement (exact -> fft -> approx -> histogram),
// cancellation at the engine's work boundaries, and reason stamping.

struct FftLadderRig : LadderRig {
  FftDensityEngine fft{{.extent = kExtent, .grid = 64, .horizon = kHorizon}};

  FftLadderRig() {
    for (const UpdateEvent& e : Workload()) fft.Apply(e);
  }
};

TEST(ResilienceTest, LadderPrefersFftOverApproxWhenExactDisabled) {
  FftLadderRig rig;
  // Both the FFT rung and the PA rung could answer (l matches PA's fixed
  // l); the FFT rung must win — it sits directly below exact.
  ResilientExecutor exec(&rig.fr, &rig.pa, {.enable_exact = false},
                         &rig.fft);
  const TieredResult result = exec.Query(0, rig.rho, kL);
  EXPECT_EQ(result.tier, AnswerTier::kFft);
  EXPECT_EQ(result.downgrade_reason, DowngradeReason::kDisabled);
  EXPECT_FALSE(result.timed_out);

  // The documented bound: accepts subset exact subset accepts+candidates.
  const auto exact = rig.fr.Query(0, rig.rho, kL);
  EXPECT_NEAR(RegionDifference(result.region, exact.region).Area(), 0.0,
              1e-9);
  EXPECT_NEAR(RegionDifference(exact.region, result.maybe_region).Area(),
              0.0, 1e-9);
}

TEST(ResilienceTest, LadderFftAnswersForLsThePaRungCannotServe) {
  FftLadderRig rig;
  // PA is pinned to kL; the FFT rung handles any l (block sums are per
  // half-width).
  ResilientExecutor exec(&rig.fr, &rig.pa, {.enable_exact = false},
                         &rig.fft);
  const TieredResult result = exec.Query(0, rig.rho, kL + 5.0);
  EXPECT_EQ(result.tier, AnswerTier::kFft);
}

TEST(ResilienceTest, LadderSkipsFftOutsideItsHorizon) {
  FftLadderRig rig;
  FftDensityEngine myopic({.extent = kExtent, .grid = 64, .horizon = 2});
  for (const UpdateEvent& e : Workload()) myopic.Apply(e);
  ResilientExecutor exec(&rig.fr, &rig.pa, {.enable_exact = false},
                         &myopic);
  EXPECT_EQ(exec.Query(2, rig.rho, kL).tier, AnswerTier::kFft);
  // q_t = 5 is inside the FR/PA horizon but beyond the FFT engine's own:
  // the ladder must fall through to the approx rung, not throw.
  EXPECT_EQ(exec.Query(5, rig.rho, kL).tier, AnswerTier::kApprox);
}

TEST(ResilienceTest, LadderDeadlineMissWalksExactFftApproxHistogram) {
  FftLadderRig rig;
  ResilientExecutor exec(&rig.fr, &rig.pa, {.deadline_ms = 1e-9}, &rig.fft);
  const TieredResult result = exec.Query(0, rig.rho, kL);
  // Every deadline-controlled rung cancels at its entry boundary; only
  // the histogram floor (never cancelled) answers. The stage record
  // proves the walk order: the FFT rung ran after exact and before PA.
  EXPECT_EQ(result.tier, AnswerTier::kHistogram);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.downgrade_reason, DowngradeReason::kDeadline);
  ASSERT_EQ(result.explain.stages.size(), 4u);
  EXPECT_EQ(result.explain.stages[0].name, "exact");
  EXPECT_FALSE(result.explain.stages[0].completed);
  EXPECT_EQ(result.explain.stages[1].name, "fft");
  EXPECT_FALSE(result.explain.stages[1].completed);
  EXPECT_EQ(result.explain.stages[2].name, "approx");
  EXPECT_FALSE(result.explain.stages[2].completed);
  EXPECT_EQ(result.explain.stages[3].name, "histogram");
  EXPECT_TRUE(result.explain.stages[3].completed);
}

TEST(ResilienceTest, LadderFftCancellationWithoutDegradePropagates) {
  FftLadderRig rig;
  ResilientExecutor exec(
      &rig.fr, &rig.pa,
      {.deadline_ms = 1e-9, .degrade = false, .enable_exact = false},
      &rig.fft);
  EXPECT_THROW(exec.Query(0, rig.rho, kL), CancelledError);
}

TEST(ResilienceTest, LadderRecordsFftFieldAndCancellationEvents) {
  FftLadderRig rig;
  FlightRecorder::SetEnabled(true);
  FlightRecorder::Global().Reset();

  ResilientExecutor ok(&rig.fr, &rig.pa, {.enable_exact = false}, &rig.fft);
  ASSERT_EQ(ok.Query(0, rig.rho, kL).tier, AnswerTier::kFft);
  ResilientExecutor expired(&rig.fr, &rig.pa, {.deadline_ms = 1e-9},
                            &rig.fft);
  ASSERT_TRUE(expired.Query(0, rig.rho, kL).timed_out);
  if (!PdrObs::CompiledIn()) return;  // the recorder holds no events

  bool saw_enter = false, saw_field = false, saw_cancel = false;
  for (const MicroEvent& e : FlightRecorder::Global().Snapshot()) {
    if (e.kind == FrEvent::kTierEnter &&
        e.a == static_cast<int64_t>(AnswerTier::kFft)) {
      saw_enter = true;
    }
    if (e.kind == FrEvent::kFftField && e.a == 0 && e.b == 64) {
      saw_field = true;
    }
    if (e.kind == FrEvent::kCancelled &&
        e.a == static_cast<int64_t>(AnswerTier::kFft)) {
      saw_cancel = true;
    }
  }
  EXPECT_TRUE(saw_enter);
  EXPECT_TRUE(saw_field);
  EXPECT_TRUE(saw_cancel);
  FlightRecorder::SetEnabled(false);
  FlightRecorder::Global().Reset();
}


// ---------------------------------------------------------------------------
// The ladder's behaviour matrix: every combination of exact on/off, FFT
// rung absent / in horizon / out of horizon, PA rung absent / matching l /
// mismatched l, no control / pre-expired deadline / cancelled token, and
// degrade on/off (2x3x3x3x2 = 108 cases) against a reference walk written
// out rung by rung from the ladder's contract.

enum class FftCase { kNone, kInHorizon, kOutOfHorizon };
enum class PaCase { kNone, kMatchingL, kMismatchedL };
enum class Control { kNone, kExpiredDeadline, kCancelledToken };

struct LadderWalk {
  bool throws = false;
  AnswerTier tier = AnswerTier::kExact;
  DowngradeReason reason = DowngradeReason::kNone;
  bool timed_out = false;
  std::vector<std::pair<std::string, bool>> stages;  // name, completed
  /// (kind, a, b) of this query's kTierEnter (a = tier, b = reason) and
  /// kCancelled (a = tier; b, the elapsed time, is not compared) events.
  std::vector<std::tuple<FrEvent, int64_t, int64_t>> events;
};

// Exact runs when enabled, fft when attached and q_t is in its horizon,
// approx when attached with the query's l, and the histogram floor
// always. Under a fired control every rung but the floor cancels at its
// entry boundary; the first failure names the downgrade reason (over a
// policy kDisabled), and without degrade the cancellation propagates.
LadderWalk ReferenceWalk(bool exact, FftCase fft, PaCase pa, Control control,
                         bool degrade) {
  struct Rung {
    AnswerTier tier;
    const char* name;
    bool serves;
  };
  const Rung rungs[] = {
      {AnswerTier::kExact, "exact", exact},
      {AnswerTier::kFft, "fft", fft == FftCase::kInHorizon},
      {AnswerTier::kApprox, "approx", pa == PaCase::kMatchingL},
      {AnswerTier::kHistogram, "histogram", true},
  };
  LadderWalk w;
  if (!exact) w.reason = DowngradeReason::kDisabled;
  for (const Rung& rung : rungs) {
    if (!rung.serves) continue;
    w.events.emplace_back(FrEvent::kTierEnter,
                          static_cast<int64_t>(rung.tier),
                          static_cast<int64_t>(w.reason));
    if (control == Control::kNone || rung.tier == AnswerTier::kHistogram) {
      w.tier = rung.tier;
      if (rung.tier == AnswerTier::kExact) {
        w.stages = {{"filter", true}, {"refine", true}};
      } else {
        w.stages.emplace_back(rung.name, true);
      }
      return w;
    }
    w.stages.emplace_back(rung.name, false);
    if (w.reason == DowngradeReason::kNone ||
        w.reason == DowngradeReason::kDisabled) {
      w.reason = DowngradeReason::kDeadline;
    }
    w.timed_out = true;
    w.events.emplace_back(FrEvent::kCancelled,
                          static_cast<int64_t>(rung.tier), 0);
    if (!degrade) {
      w.throws = true;
      return w;
    }
  }
  return w;
}

TEST(ResilienceTest, LadderMatchesItsReferenceWalkAcrossTheMatrix) {
  FftLadderRig rig;  // fr, pa (l = kL) and fft (horizon kHorizon)
  PaEngine::Options wide = PaOpts();
  wide.l = kL + 5.0;
  PaEngine mismatched(wide);
  FftDensityEngine myopic({.extent = kExtent, .grid = 64, .horizon = 2});
  for (const UpdateEvent& e : Workload()) {
    mismatched.Apply(e);
    myopic.Apply(e);
  }
  // Inside the FR/PA horizon, past the myopic FFT engine's.
  constexpr Tick kQt = 5;

  const bool was_enabled = FlightRecorder::Enabled();
  FlightRecorder::SetEnabled(true);
  int cases = 0;
  for (const bool exact : {true, false}) {
    for (const FftCase fft :
         {FftCase::kNone, FftCase::kInHorizon, FftCase::kOutOfHorizon}) {
      for (const PaCase pa :
           {PaCase::kNone, PaCase::kMatchingL, PaCase::kMismatchedL}) {
        for (const Control control : {Control::kNone,
                                      Control::kExpiredDeadline,
                                      Control::kCancelledToken}) {
          for (const bool degrade : {true, false}) {
            ++cases;
            SCOPED_TRACE(::testing::Message()
                         << "exact=" << exact << " fft=" << int(fft)
                         << " pa=" << int(pa) << " control=" << int(control)
                         << " degrade=" << degrade);
            const LadderWalk want =
                ReferenceWalk(exact, fft, pa, control, degrade);

            ResilienceOptions options;
            options.enable_exact = exact;
            options.degrade = degrade;
            if (control == Control::kExpiredDeadline) {
              options.deadline_ms = 1e-9;
            }
            CancelToken token;
            if (control == Control::kCancelledToken) token.Cancel();
            PaEngine* fallback = pa == PaCase::kNone        ? nullptr
                                 : pa == PaCase::kMatchingL ? &rig.pa
                                                            : &mismatched;
            FftDensityEngine* rung = fft == FftCase::kNone        ? nullptr
                                     : fft == FftCase::kInHorizon ? &rig.fft
                                                                  : &myopic;
            ResilientExecutor exec(&rig.fr, fallback, options, rung);

            FlightRecorder::Global().Reset();
            TieredResult got;
            bool threw = false;
            try {
              got = exec.Query(kQt, rig.rho, kL, &token);
            } catch (const CancelledError&) {
              threw = true;
            }
            ASSERT_EQ(threw, want.throws);

            std::vector<std::tuple<FrEvent, int64_t, int64_t>> events;
            uint32_t qid = 0;
            for (const MicroEvent& e : FlightRecorder::Global().Snapshot()) {
              if (e.kind != FrEvent::kTierEnter &&
                  e.kind != FrEvent::kCancelled) {
                continue;
              }
              if (qid == 0) qid = e.query_id;
              EXPECT_EQ(e.query_id, qid);  // one query id per walk
              events.emplace_back(e.kind, e.a,
                                  e.kind == FrEvent::kCancelled ? 0 : e.b);
            }
            if (PdrObs::CompiledIn()) {
              EXPECT_NE(qid, 0u);
              EXPECT_EQ(events, want.events);
            }
            if (threw) continue;

            EXPECT_EQ(got.explain.query_id, qid);
            EXPECT_EQ(got.tier, want.tier);
            EXPECT_EQ(got.downgrade_reason, want.reason);
            EXPECT_EQ(got.timed_out, want.timed_out);
            EXPECT_EQ(got.explain.tier, want.tier);
            EXPECT_EQ(got.explain.downgrade_reason, want.reason);
            EXPECT_EQ(got.explain.timed_out, want.timed_out);
            std::vector<std::pair<std::string, bool>> stages;
            for (const ExplainStage& st : got.explain.stages) {
              stages.emplace_back(st.name, st.completed);
            }
            EXPECT_EQ(stages, want.stages);
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 108);
  FlightRecorder::SetEnabled(was_enabled);
  FlightRecorder::Global().Reset();
}

// ---------------------------------------------------------------------------
// Transient I/O faults: bounded retry, metrics-visible, never tripping
// crash recovery.

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pdr_resilience_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    dir_ = dir != nullptr ? dir : "/tmp";
  }
  ~TempDir() { std::system(("rm -rf '" + dir_ + "'").c_str()); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

TEST(ResilienceTest, TransientFaultsAreRetriedAndCounted) {
  const bool was_enabled = PdrObs::Enabled();
  PdrObs::SetEnabled(true);
  Counter& retries =
      MetricsRegistry::Global().GetCounter("pdr.storage.transient_retries");
  const int64_t retries_before = retries.value();

  TempDir dir;
  FaultInjector injector;
  FrEngine::Options opts = FrOpts();
  opts.storage_dir = dir.path();
  opts.fault_injector = &injector;
  const double rho = WorkloadRho();
  Region checkpointed;
  {
    FrEngine fr(opts);
    for (const UpdateEvent& e : Workload()) fr.Apply(e);
    checkpointed = fr.Query(0, rho, kL).region;
    // Fail the next three fault points, then succeed: the checkpoint must
    // complete without surfacing any error.
    injector.ArmTransient(injector.ops_seen(), 3);
    EXPECT_NO_THROW(fr.Checkpoint());
    EXPECT_EQ(injector.transient_fired(), 3);
    EXPECT_FALSE(injector.fired());  // no crash was delivered
  }
  if (PdrObs::CompiledIn()) {
    EXPECT_EQ(retries.value(), retries_before + 3);
  }

  // Reopen: normal recovery from a complete checkpoint, no data loss and
  // no crash-recovery path involved.
  injector.DisarmTransient();
  FrEngine recovered(opts);
  EXPECT_TRUE(recovered.recovered());
  EXPECT_TRUE(SameRects(recovered.Query(0, rho, kL).region, checkpointed));
  PdrObs::SetEnabled(was_enabled);
}

TEST(ResilienceTest, PersistentTransientFaultSurfacesAsPlainError) {
  TempDir dir;
  FaultInjector injector;
  FrEngine::Options opts = FrOpts();
  opts.storage_dir = dir.path();
  opts.fault_injector = &injector;
  FrEngine fr(opts);
  for (const UpdateEvent& e : Workload(60)) fr.Apply(e);
  // Every point fails: the retry budget (8) runs out. The error must be a
  // plain runtime_error, NOT CrashError — a persistently failing disk is
  // an operational failure, not a simulated crash.
  injector.ArmTransientEvery(1, 1);
  try {
    fr.Checkpoint();
    FAIL() << "expected the retry budget to run out";
  } catch (const CrashError&) {
    FAIL() << "transient faults must not surface as CrashError";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("transient"), std::string::npos);
  }
  injector.DisarmTransient();
}

// ---------------------------------------------------------------------------
// Monitor integration.

std::vector<UpdateEvent> Convoy(int n) {
  std::vector<UpdateEvent> events;
  Rng rng(71);
  for (ObjectId id = 0; id < static_cast<ObjectId>(n); ++id) {
    const Vec2 p{50 + rng.Uniform(-3, 3), 100 + rng.Uniform(-3, 3)};
    events.push_back({0, id, std::nullopt, MotionState{p, {0, 0}, 0}});
  }
  return events;
}

// One stamp per engine: every entry point that answers exactly (the
// monitor's direct tick, an unladdered batch, the ladder, a snapshot
// delta over FrEngine::Query, an MVCC snapshot query) and every one that
// answers through PA must describe the same answer the same way.

struct StampFacts {
  std::string signature;
  std::vector<std::string> stages;
  int64_t objects_fetched = 0;
  int64_t dense_rects = 0;

  explicit StampFacts(const ExplainRecord& explain)
      : signature(explain.DeterministicSignature()),
        objects_fetched(explain.objects_fetched),
        dense_rects(explain.dense_rects) {
    for (const ExplainStage& st : explain.stages) stages.push_back(st.name);
  }

  bool operator==(const StampFacts& o) const {
    return signature == o.signature && stages == o.stages &&
           objects_fetched == o.objects_fetched && dense_rects == o.dense_rects;
  }
};

std::ostream& operator<<(std::ostream& os, const StampFacts& f) {
  return os << f.signature << " objects=" << f.objects_fetched
            << " rects=" << f.dense_rects;
}

TEST(ResilienceTest, EveryExactEntryPointStampsOneExplain) {
  constexpr Tick kLookahead = 3;
  const double rho = WorkloadRho();
  FrEngine fr(FrOpts());
  for (const UpdateEvent& e : Workload()) fr.Apply(e);
  const PdrMonitor::Options opts{.rho = rho, .l = kL,
                                 .lookahead = kLookahead};

  PdrMonitor direct(&fr, opts);
  const PdrMonitor::Delta tick = direct.OnTick(0);
  ASSERT_EQ(tick.tier, AnswerTier::kExact);
  const StampFacts want(tick.explain);
  EXPECT_GT(want.objects_fetched, 0);
  EXPECT_GT(want.dense_rects, 0);
  EXPECT_EQ(want.stages, (std::vector<std::string>{"filter", "refine"}));

  PdrMonitor batcher(&fr, opts);
  const std::vector<TieredResult> batch =
      batcher.QueryBatch(0, {{rho, kL, kLookahead}});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(StampFacts(batch[0].explain), want);

  ResilientExecutor ladder(&fr, nullptr, {.deadline_ms = 1e9});
  const TieredResult laddered = ladder.Query(kLookahead, rho, kL);
  ASSERT_EQ(laddered.tier, AnswerTier::kExact);
  EXPECT_EQ(StampFacts(laddered.explain), want);

  const PdrMonitor::Delta snapshot = PdrMonitor::MakeSnapshotDelta(
      0, kLookahead, rho, kL, /*epoch=*/1, fr.Query(kLookahead, rho, kL),
      0.0);
  EXPECT_EQ(StampFacts(snapshot.explain), want);

  mvcc::SnapshotManager snapshots;
  FrEngine::Options mvcc_opts = FrOpts();
  mvcc_opts.snapshots = &snapshots;
  FrEngine versioned(mvcc_opts);
  PdrMonitor concurrent(&versioned, opts);
  concurrent.StartConcurrent();
  concurrent.ApplyUpdates(0, Workload());
  const PdrMonitor::Delta pinned = concurrent.RunSnapshotQuery();
  EXPECT_GT(pinned.epoch, 0u);
  EXPECT_EQ(StampFacts(pinned.explain), want);
}

TEST(ResilienceTest, PaPrimaryTickAndApproxRungStampOneExplain) {
  constexpr Tick kLookahead = 3;
  const double rho = WorkloadRho();
  LadderRig rig;

  PdrMonitor primary(&rig.pa, {.rho = rho, .l = kL, .lookahead = kLookahead});
  const PdrMonitor::Delta tick = primary.OnTick(0);
  ASSERT_EQ(tick.explain.tier, AnswerTier::kApprox);
  EXPECT_GT(tick.explain.bnb_nodes, 0);

  ResilientExecutor ladder(&rig.fr, &rig.pa, {.enable_exact = false});
  TieredResult approx = ladder.Query(kLookahead, rho, kL);
  ASSERT_EQ(approx.tier, AnswerTier::kApprox);
  // The ladder names why exact did not answer; the PA-primary monitor
  // never tried it. Everything else must match.
  EXPECT_EQ(approx.downgrade_reason, DowngradeReason::kDisabled);
  approx.explain.downgrade_reason = tick.explain.downgrade_reason;
  EXPECT_EQ(StampFacts(approx.explain), StampFacts(tick.explain));
  EXPECT_EQ(approx.explain.bnb_pruned, tick.explain.bnb_pruned);
  EXPECT_TRUE(SameRects(approx.region, tick.current));
}

TEST(ResilienceTest, MonitorStampsTierAndBudget) {
  FrEngine fr(FrOpts());
  for (const UpdateEvent& e : Convoy(30)) fr.Apply(e);
  PdrMonitor::Options opts{.rho = 20.0 / 100.0, .l = 10.0, .lookahead = 0};
  opts.resilience.deadline_ms = 1e9;
  PdrMonitor monitor(&fr, opts);
  const auto delta = monitor.OnTick(0);
  EXPECT_EQ(delta.tier, AnswerTier::kExact);
  EXPECT_FALSE(delta.shed);
  EXPECT_EQ(delta.budget_ms, 1e9);
  EXPECT_GE(delta.elapsed_ms, 0.0);
  EXPECT_FALSE(delta.current.IsEmpty());
}

TEST(ResilienceTest, MonitorShedsTicksWhenControllerIsFull) {
  FrEngine fr(FrOpts());
  for (const UpdateEvent& e : Convoy(30)) fr.Apply(e);
  PdrMonitor monitor(&fr,
                     {.rho = 20.0 / 100.0, .l = 10.0, .lookahead = 0});
  AdmissionController ac({.max_inflight = 1});
  monitor.SetAdmissionController(&ac);

  const auto first = monitor.OnTick(0);
  EXPECT_FALSE(first.shed);
  ASSERT_FALSE(first.current.IsEmpty());

  // Saturate the controller from "another serving thread": the next tick
  // must shed — repeating the previous answer with empty deltas — and the
  // standing state must not advance.
  auto held = ac.TryAdmit();
  ASSERT_TRUE(held.ok());
  fr.AdvanceTo(1);
  const auto shed = monitor.OnTick(1);
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(shed.tier, AnswerTier::kShed);
  EXPECT_TRUE(SameRects(shed.current, first.current));
  EXPECT_TRUE(shed.appeared.IsEmpty());
  EXPECT_TRUE(shed.vanished.IsEmpty());
  EXPECT_EQ(ac.shed(), 1);

  held.Release();
  fr.AdvanceTo(2);
  const auto resumed = monitor.OnTick(2);
  EXPECT_FALSE(resumed.shed);
  EXPECT_EQ(resumed.tier, AnswerTier::kExact);
  // The stationary convoy did not move: no spurious deltas after a shed.
  EXPECT_TRUE(resumed.appeared.IsEmpty());
  EXPECT_TRUE(resumed.vanished.IsEmpty());
}

TEST(ResilienceTest, MonitorOffersDegradedAnswersToTheAuditor) {
  const bool was_enabled = PdrObs::Enabled();
  PdrObs::SetEnabled(true);  // the audit sampler is gated on observability
  FrEngine fr(FrOpts());
  Oracle oracle(kExtent);
  for (const UpdateEvent& e : Convoy(30)) {
    fr.Apply(e);
    oracle.Apply(e);
  }
  ShadowAuditor auditor(&fr, &oracle, {.sample_rate = 1.0, .l = 10.0});
  PdrMonitor::Options opts{.rho = 20.0 / 100.0, .l = 10.0, .lookahead = 0};
  opts.resilience.enable_exact = false;  // pin a degraded tier (no PA)
  PdrMonitor monitor(&fr, opts);
  monitor.SetAuditor(&auditor);
  const auto delta = monitor.OnTick(0);
  EXPECT_EQ(delta.tier, AnswerTier::kHistogram);
  if (!PdrObs::CompiledIn()) return;  // no sampler, no verdict
  ASSERT_TRUE(delta.audit.has_value());
  // The histogram tier is pessimistic: whatever it claims dense is dense.
  EXPECT_GE(delta.audit->precision, 1.0 - 1e-9);
  PdrObs::SetEnabled(was_enabled);
}

TEST(ResilienceTest, MonitorFftRungAnswersTheStandingQuery) {
  FrEngine fr(FrOpts());
  // grid=128 keeps the conservative window (half-width 2, ~7.8 units) wide
  // enough to certify the convoy's core at l=10; at grid=64 the window
  // degenerates to one cell and the subset is legitimately empty.
  FftDensityEngine fft({.extent = kExtent, .grid = 128, .horizon = kHorizon});
  for (const UpdateEvent& e : Convoy(30)) {
    fr.Apply(e);
    fft.Apply(e);
  }
  PdrMonitor::Options opts{.rho = 20.0 / 100.0, .l = 10.0, .lookahead = 0};
  opts.resilience.enable_exact = false;  // pin the fft rung
  PdrMonitor monitor(&fr, opts);
  monitor.SetFftRung(&fft);
  const auto delta = monitor.OnTick(0);
  EXPECT_EQ(delta.tier, AnswerTier::kFft);
  EXPECT_EQ(delta.downgrade_reason, DowngradeReason::kDisabled);
  EXPECT_FALSE(delta.current.IsEmpty());
  // The optimistic superset rides along on the delta for fft answers.
  const auto exact = fr.Query(0, opts.rho, opts.l);
  EXPECT_NEAR(RegionDifference(delta.current, exact.region).Area(), 0.0,
              1e-9);
  EXPECT_NEAR(RegionDifference(exact.region, delta.maybe_region).Area(), 0.0,
              1e-9);
}

TEST(ResilienceTest, MonitorQueryBatchAmortizesOneFieldPerTargetTick) {
  FrEngine fr(FrOpts());
  FftDensityEngine fft({.extent = kExtent, .grid = 64, .horizon = kHorizon});
  for (const UpdateEvent& e : Workload()) {
    fr.Apply(e);
    fft.Apply(e);
  }
  PdrMonitor::Options opts{.rho = WorkloadRho(), .l = kL, .lookahead = 0};
  opts.resilience.enable_exact = false;
  PdrMonitor monitor(&fr, opts);
  monitor.SetFftRung(&fft);

  Counter& built =
      MetricsRegistry::Global().GetCounter("pdr.fft.fields_built");
  const int64_t built_before = built.value();

  // Eight specs over two distinct target ticks: exactly two fields.
  std::vector<PdrMonitor::BatchQuerySpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back({WorkloadRho() * (0.5 + 0.3 * i), kL + i, /*lookahead=*/0});
  }
  specs.push_back({WorkloadRho(), kL, /*lookahead=*/2});
  specs.push_back({WorkloadRho() * 2.0, kL + 3.0, /*lookahead=*/2});

  const std::vector<TieredResult> results = monitor.QueryBatch(0, specs);
  ASSERT_EQ(results.size(), specs.size());
  if (PdrObs::CompiledIn()) {
    EXPECT_EQ(built.value(), built_before + 2);
  }
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].tier, AnswerTier::kFft) << "i=" << i;
    EXPECT_EQ(results[i].explain.q_t,
              static_cast<Tick>(specs[i].lookahead))
        << "i=" << i;
  }
  // Both target ticks' fields are cached for whatever comes next.
  EXPECT_TRUE(fft.Query(0, WorkloadRho(), kL).field_cached);
  EXPECT_TRUE(fft.Query(2, WorkloadRho(), kL).field_cached);
}

TEST(ResilienceTest, MonitorQueryBatchWithoutLadderAnswersExact) {
  FrEngine fr(FrOpts());
  for (const UpdateEvent& e : Workload()) fr.Apply(e);
  PdrMonitor monitor(&fr, {.rho = WorkloadRho(), .l = kL, .lookahead = 0});
  const std::vector<PdrMonitor::BatchQuerySpec> specs = {
      {WorkloadRho(), kL, 0}, {WorkloadRho() * 2.0, kL - 5.0, 1}};
  const auto results = monitor.QueryBatch(0, specs);
  ASSERT_EQ(results.size(), 2u);
  for (const TieredResult& r : results) {
    EXPECT_EQ(r.tier, AnswerTier::kExact);
    EXPECT_EQ(r.explain.stages.size(), 2u);
  }
  EXPECT_TRUE(SameRects(results[0].region,
                        fr.Query(0, WorkloadRho(), kL).region));
}

TEST(ResilienceTest, MonitorLadderRequiresFrPrimary) {
  PaEngine pa(PaOpts());
  for (const UpdateEvent& e : Workload()) pa.Apply(e);
  PdrMonitor::Options opts{.rho = WorkloadRho(), .l = kL, .lookahead = 0};
  opts.resilience.deadline_ms = 10.0;
  PdrMonitor monitor(&pa, opts);
  EXPECT_THROW(monitor.OnTick(0), std::logic_error);
}

}  // namespace
}  // namespace pdr
