// Shadow auditor / cost calibrator / drift detector tests.
//
// The workload is a synthetic uniform grid of stationary objects filling a
// central block of the domain: the exact dense region is a predictable
// square, the PA density field is a plateau with l-wide ramps at the block
// edges (easy for a high-degree Chebyshev model, hard for a truncated
// one), and every engine sees the identical update stream.

#include "pdr/obs/audit.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "pdr/core/fr_engine.h"
#include "pdr/core/monitor.h"
#include "pdr/core/oracle.h"
#include "pdr/core/pa_engine.h"
#include "pdr/mobility/generator.h"
#include "pdr/obs/export.h"
#include "pdr/obs/report.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;
constexpr double kL = 20.0;
constexpr double kRho = 0.1;  // in-block density is 0.25

// Stationary objects every `spacing` units over [lo, hi) x [lo, hi).
std::vector<UpdateEvent> BlockGrid(double lo, double hi, double spacing) {
  std::vector<UpdateEvent> events;
  ObjectId id = 0;
  for (double x = lo; x < hi; x += spacing) {
    for (double y = lo; y < hi; y += spacing) {
      events.push_back(
          {0, id++, std::nullopt, MotionState{{x, y}, {0, 0}, 0}});
    }
  }
  return events;
}

// FR + PA + oracle fed the same block-grid snapshot at tick 0.
struct AuditRig {
  FrEngine fr;
  PaEngine pa;
  Oracle oracle;

  explicit AuditRig(int degree)
      : fr({.extent = kExtent,
            .histogram_side = 20,
            .horizon = 30,
            .buffer_pages = 64,
            .io_ms = 10.0}),
        pa({.extent = kExtent,
            .poly_side = 4,
            .degree = degree,
            .horizon = 30,
            .l = kL,
            .eval_grid = 200}),
        oracle(kExtent) {
    for (const UpdateEvent& e : BlockGrid(60, 140, 2)) {
      fr.Apply(e);
      pa.Apply(e);
      oracle.Apply(e);
    }
  }

  ShadowAuditor MakeAuditor(double rate = 1.0) {
    ShadowAuditor::Options options;
    options.sample_rate = rate;
    options.l = kL;
    ShadowAuditor auditor(&fr, &oracle, options);
    auditor.SetApproxDensityProbe(
        [this](Tick t, Vec2 p) { return pa.Density(t, p); });
    return auditor;
  }
};

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PdrObs::SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
  }
};

// Verdict math works even with observability compiled out; tests that
// read the registry back (or rely on runtime sampling) skip under
// -DPDR_OBS=OFF, matching obs_test.
#define REQUIRE_OBS_COMPILED_IN()                                  \
  if (!PdrObs::CompiledIn())                                       \
  GTEST_SKIP() << "observability compiled out (PDR_OBS=OFF)"

TEST_F(AuditTest, HighDegreePaScoresNearPerfect) {
  AuditRig rig(/*degree=*/12);
  ShadowAuditor auditor = rig.MakeAuditor();
  const Region pa_region = rig.pa.Query(0, kRho).region;
  const AuditVerdict verdict = auditor.Audit(0, kRho, pa_region);

  EXPECT_GT(verdict.fr_area, 0.0);
  EXPECT_GE(verdict.precision, 0.95);
  EXPECT_GE(verdict.recall, 0.95);
  EXPECT_LE(verdict.false_accept_frac, 0.05);
  EXPECT_LE(verdict.false_reject_frac, 0.05);
  EXPECT_EQ(auditor.audited(), 1);
}

TEST_F(AuditTest, CoefficientTruncationLosesRecall) {
  AuditRig sharp(/*degree=*/12);
  AuditRig truncated(/*degree=*/1);
  ShadowAuditor sharp_auditor = sharp.MakeAuditor();
  ShadowAuditor trunc_auditor = truncated.MakeAuditor();

  const AuditVerdict good =
      sharp_auditor.Audit(0, kRho, sharp.pa.Query(0, kRho).region);
  const AuditVerdict bad =
      trunc_auditor.Audit(0, kRho, truncated.pa.Query(0, kRho).region);

  // A degree-1 model cannot hold the plateau and the ramps at once, so
  // part of the truly dense block is lost.
  EXPECT_LT(bad.recall, 0.95);
  EXPECT_LT(bad.recall, good.recall);
  EXPECT_FALSE(bad.Agrees());
  // The disagreement region is probed against the oracle.
  EXPECT_GT(bad.density_probes, 0);
  EXPECT_GT(bad.max_density_err, 0.0);
}

TEST_F(AuditTest, VerdictsPublishRegistryMetrics) {
  REQUIRE_OBS_COMPILED_IN();
  AuditRig rig(/*degree=*/12);
  ShadowAuditor auditor = rig.MakeAuditor();
  (void)auditor.Audit(0, kRho, rig.pa.Query(0, kRho).region);

  const auto snap = MetricsRegistry::Global().TakeSnapshot();
  bool saw_precision = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "pdr.audit.precision") {
      saw_precision = true;
      EXPECT_EQ(h.stat.count(), 1);
    }
  }
  EXPECT_TRUE(saw_precision);
  int64_t sampled = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "pdr.audit.sampled") sampled = c.value;
  }
  EXPECT_EQ(sampled, 1);
}

TEST_F(AuditTest, SampleRateZeroNeverAudits) {
  AuditRig rig(/*degree=*/4);
  ShadowAuditor auditor = rig.MakeAuditor(/*rate=*/0.0);
  const Region pa_region = rig.pa.Query(0, kRho).region;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(auditor.MaybeAudit(0, kRho, pa_region).has_value());
  }
  EXPECT_EQ(auditor.audited(), 0);
}

TEST_F(AuditTest, RuntimeDisabledSkipsSampling) {
  REQUIRE_OBS_COMPILED_IN();
  AuditRig rig(/*degree=*/4);
  ShadowAuditor auditor = rig.MakeAuditor(/*rate=*/1.0);
  const Region pa_region = rig.pa.Query(0, kRho).region;
  PdrObs::SetEnabled(false);
  EXPECT_FALSE(auditor.MaybeAudit(0, kRho, pa_region).has_value());
  PdrObs::SetEnabled(true);
  EXPECT_TRUE(auditor.MaybeAudit(0, kRho, pa_region).has_value());
}

TEST_F(AuditTest, MonitorCarriesVerdictOnDelta) {
  REQUIRE_OBS_COMPILED_IN();
  AuditRig rig(/*degree=*/12);
  ShadowAuditor auditor = rig.MakeAuditor();
  PdrMonitor monitor(&rig.pa, {.rho = kRho, .l = kL, .lookahead = 0});
  monitor.SetAuditor(&auditor);
  const auto delta = monitor.OnTick(0);
  ASSERT_TRUE(delta.audit.has_value());
  EXPECT_GE(delta.audit->recall, 0.9);
  EXPECT_FALSE(delta.current.IsEmpty());
}

// --- CostCalibrator ---------------------------------------------------------

TEST_F(AuditTest, ZeroSlackPredictionMatchesFilterExactly) {
  AuditRig rig(/*degree=*/4);
  CostCalibrator calibrator(&rig.fr, {.z = 0.0});
  const CostPrediction pred = calibrator.Predict(0, kRho, kL);
  const auto actual = rig.fr.Query(0, kRho, kL);
  // With no slack the model runs the filter's own block sums, so the
  // classification is reproduced exactly.
  EXPECT_DOUBLE_EQ(pred.accepted_cells,
                   static_cast<double>(actual.accepted_cells));
  EXPECT_DOUBLE_EQ(pred.rejected_cells,
                   static_cast<double>(actual.rejected_cells));
  EXPECT_DOUBLE_EQ(pred.candidate_cells,
                   static_cast<double>(actual.candidate_cells));
}

TEST_F(AuditTest, SlackWidensCandidateBandAndStaysCalibrated) {
  REQUIRE_OBS_COMPILED_IN();
  AuditRig rig(/*degree=*/4);
  CostCalibrator tight(&rig.fr, {.z = 0.0});
  CostCalibrator calibrator(&rig.fr);  // default z = 2
  const CostPrediction pred = calibrator.Predict(0, kRho, kL);
  EXPECT_GE(pred.candidate_cells,
            tight.Predict(0, kRho, kL).candidate_cells);

  const auto actual = rig.fr.Query(0, kRho, kL);
  calibrator.Observe(pred, actual);
  EXPECT_EQ(calibrator.observations(), 1);
  // The model should land within the drift band on a benign workload.
  EXPECT_GT(calibrator.io_ratio_ewma(), 0.05);
  EXPECT_LT(calibrator.io_ratio_ewma(), 20.0);
  EXPECT_GT(calibrator.candidate_ratio_ewma(), 0.05);
  EXPECT_LE(calibrator.candidate_ratio_ewma(), 20.0);

  const auto snap = MetricsRegistry::Global().TakeSnapshot();
  bool saw_ratio = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "pdr.calib.io_ratio" && h.stat.count() == 1) {
      saw_ratio = true;
    }
  }
  EXPECT_TRUE(saw_ratio);
}

// The model charges one descent plus the cluster box's objects per
// predicted cluster, as the grouped fetch reads them. On the benchmark's
// exact standing workload — a 10k-object trip model, varrho 3, l 30, a
// 16-page pool against a tree of ~185 pages — the ratio stays inside
// [1/3, 3] and the drift detector stays quiet.
TEST_F(AuditTest, IoRatioCalibratedOnTripModel) {
  REQUIRE_OBS_COMPILED_IN();
  constexpr int kObjects = 10000;
  constexpr double kTripExtent = 1000.0;
  constexpr double kTripL = 30.0;
  WorkloadConfig config;
  config.WithExtent(kTripExtent);
  config.num_objects = kObjects;
  config.seed = 11;
  TripSimulator sim(config);
  FrEngine fr({.extent = kTripExtent,
               .histogram_side = 100,
               .horizon = 120,
               .buffer_pages = 16});
  for (const UpdateEvent& e : sim.Bootstrap()) fr.Apply(e);
  CostCalibrator calibrator(&fr);
  EwmaDriftDetector detector;
  const double rho = 3.0 * kObjects / (kTripExtent * kTripExtent);
  for (Tick t = 1; t <= 10; ++t) {
    fr.AdvanceTo(t);
    for (const UpdateEvent& e : sim.Advance(t)) fr.Apply(e);
    const Tick q_t = t + 20;
    const CostPrediction pred = calibrator.Predict(q_t, rho, kTripL);
    const auto actual = fr.Query(q_t, rho, kTripL);
    calibrator.Observe(pred, actual);
    EXPECT_FALSE(detector.ObserveIoRatio(
        t, static_cast<double>(actual.cost.io.logical_reads) / pred.io_reads))
        << "t=" << t;
  }
  EXPECT_GE(calibrator.io_ratio_ewma(), 1.0 / 3);
  EXPECT_LE(calibrator.io_ratio_ewma(), 3.0);
  EXPECT_FALSE(detector.drifted());
}

// --- EwmaDriftDetector ------------------------------------------------------

TEST_F(AuditTest, DriftDetectorRespectsWarmup) {
  EwmaDriftDetector detector({.alpha = 1.0, .min_recall = 0.9, .warmup = 3});
  // Bad from the start, but the flag may not raise before warmup.
  EXPECT_FALSE(detector.ObserveQuality(1, 1.0, 0.5));
  EXPECT_FALSE(detector.ObserveQuality(2, 1.0, 0.5));
  EXPECT_FALSE(detector.drifted());
  EXPECT_TRUE(detector.ObserveQuality(3, 1.0, 0.5));
  EXPECT_TRUE(detector.recall_drifted());
}

TEST_F(AuditTest, DriftDetectorFiresOnInjectedRecallRamp) {
  EwmaDriftDetector detector;  // defaults: alpha 0.3, min_recall 0.9
  Tick tick = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(detector.ObserveQuality(++tick, 1.0, 0.99));
  }
  EXPECT_FALSE(detector.drifted());
  // Ramp the recall error up; the EWMA must cross the floor and latch.
  bool fired = false;
  for (double recall = 0.95; recall > 0.4; recall -= 0.05) {
    fired = detector.ObserveQuality(++tick, 1.0, recall) || fired;
  }
  EXPECT_TRUE(fired);
  EXPECT_TRUE(detector.drifted());
  EXPECT_TRUE(detector.recall_drifted());
  ASSERT_EQ(detector.events().size(), 1u);
  EXPECT_STREQ(detector.events()[0].signal, "recall");
  EXPECT_LT(detector.events()[0].value, 0.9);

  // Sticky: recovering does not clear the flag, Reset() does.
  for (int i = 0; i < 20; ++i) {
    (void)detector.ObserveQuality(++tick, 1.0, 1.0);
  }
  EXPECT_TRUE(detector.drifted());
  detector.Reset();
  EXPECT_FALSE(detector.drifted());
  EXPECT_TRUE(detector.events().empty());
}

TEST_F(AuditTest, DriftDetectorFlagsIoRatioBand) {
  EwmaDriftDetector detector(
      {.alpha = 1.0, .io_ratio_lo = 0.05, .io_ratio_hi = 20.0, .warmup = 1});
  EXPECT_FALSE(detector.ObserveIoRatio(1, 1.0));
  EXPECT_TRUE(detector.ObserveIoRatio(2, 50.0));
  EXPECT_TRUE(detector.io_drifted());
  ASSERT_FALSE(detector.events().empty());
  EXPECT_STREQ(detector.events().back().signal, "io_ratio");
}

// --- MonitorReporter --------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(AuditTest, ReporterEmitsAuditWindowJsonl) {
  REQUIRE_OBS_COMPILED_IN();
  AuditRig rig(/*degree=*/12);
  ShadowAuditor auditor = rig.MakeAuditor();
  CostCalibrator calibrator(&rig.fr);
  auditor.SetCalibrator(&calibrator);

  const std::string path =
      ::testing::TempDir() + "/pdr_audit_report_test.jsonl";
  std::remove(path.c_str());
  {
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    MonitorReporter::Options options;
    options.interval = 5;
    MonitorReporter reporter(&writer, options);
    (void)auditor.Audit(0, kRho, rig.pa.Query(0, kRho).region);
    (void)auditor.Audit(0, kRho, rig.pa.Query(0, kRho).region);
    reporter.EmitWindow(5);
    EXPECT_EQ(reporter.windows(), 1);
    EXPECT_FALSE(reporter.drift_seen());
  }
  const std::string text = ReadWholeFile(path);
  EXPECT_NE(text.find("\"type\":\"audit_window\""), std::string::npos);
  EXPECT_NE(text.find("\"sampled\":2"), std::string::npos);
  EXPECT_NE(text.find("\"precision_mean\":"), std::string::npos);
  EXPECT_NE(text.find("\"recall_mean\":"), std::string::npos);
  EXPECT_NE(text.find("\"io_ratio_mean\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(AuditTest, ReporterWindowDiffIsolatesNewObservations) {
  REQUIRE_OBS_COMPILED_IN();
  Histogram& h = MetricsRegistry::Global().GetHistogram("pdr.test.window");
  h.Observe(10.0);
  const auto before = MetricsRegistry::Global().TakeSnapshot();
  h.Observe(20.0);
  h.Observe(30.0);
  const auto after = MetricsRegistry::Global().TakeSnapshot();

  const auto window =
      MonitorReporter::DiffHistogram(after, before, "pdr.test.window");
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->count, 2);
  EXPECT_DOUBLE_EQ(window->mean, 25.0);  // the first 10.0 is excluded
  EXPECT_GT(window->p50, 10.0);

  // No activity between snapshots -> no window entry.
  EXPECT_FALSE(
      MonitorReporter::DiffHistogram(after, after, "pdr.test.window")
          .has_value());
}

TEST_F(AuditTest, ReporterFinalReportListsPercentiles) {
  REQUIRE_OBS_COMPILED_IN();
  AuditRig rig(/*degree=*/12);
  ShadowAuditor auditor = rig.MakeAuditor();
  (void)auditor.Audit(0, kRho, rig.pa.Query(0, kRho).region);

  MonitorReporter reporter(nullptr, MonitorReporter::Options{});
  const std::string path = ::testing::TempDir() + "/pdr_audit_final_test.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  reporter.WriteFinalReport(f);
  std::fclose(f);
  const std::string text = ReadWholeFile(path);
  EXPECT_NE(text.find("PDR monitoring report"), std::string::npos);
  EXPECT_NE(text.find("pdr.audit.precision"), std::string::npos);
  EXPECT_NE(text.find("p95"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pdr
