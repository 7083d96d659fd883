#include "pdr/core/pa_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "pdr/core/fr_engine.h"
#include "pdr/core/metrics.h"
#include "pdr/core/oracle.h"
#include "pdr/core/simulation.h"
#include "pdr/mobility/generator.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;

PaEngine::Options SmallOptions(int g = 8, int degree = 6) {
  return {.extent = kExtent, .poly_side = g, .degree = degree,
          .horizon = 20, .l = 20.0, .eval_grid = 256};
}

TEST(PaEngineTest, NoIoCharged) {
  PaEngine pa(SmallOptions());
  for (const UpdateEvent& e :
       MakeClusteredInserts(800, 2, kExtent, 8.0, 0.2, 51)) {
    pa.Apply(e);
  }
  const auto result = pa.Query(0, 0.05);
  EXPECT_EQ(result.cost.io_reads(), 0);
  EXPECT_DOUBLE_EQ(result.cost.io_ms, 0.0);
  EXPECT_GT(result.cost.cpu_ms, 0.0);
}

TEST(PaEngineTest, AccurateOnClusteredWorkload) {
  PaEngine pa(SmallOptions());
  Oracle oracle(kExtent);
  for (const UpdateEvent& e :
       MakeClusteredInserts(3000, 3, kExtent, 10.0, 0.2, 52)) {
    pa.Apply(e);
    oracle.Apply(e);
  }
  const double rho = 2.0 * 3000 / (kExtent * kExtent);
  const Region truth = oracle.DenseRegions(0, rho, pa.options().l);
  ASSERT_GT(truth.Area(), 0.0);
  const auto result = pa.Query(0, rho);
  const AccuracyMetrics m = CompareRegions(truth, result.region);
  // The paper reports PA errors under ~10%; this workload is smooth so a
  // similar band should hold (allow headroom for the smaller setup).
  EXPECT_LT(m.false_positive_ratio, 0.5) << "r_fp=" << m.false_positive_ratio;
  EXPECT_LT(m.false_negative_ratio, 0.5) << "r_fn=" << m.false_negative_ratio;
  EXPECT_GT(m.Jaccard(), 0.5);
}

TEST(PaEngineTest, TracksMovingObjectsAcrossHorizon) {
  PaEngine pa(SmallOptions());
  Oracle oracle(kExtent);
  // Tight moving convoy: dense region must move with it.
  std::vector<UpdateEvent> events;
  Rng rng(53);
  for (ObjectId id = 0; id < 60; ++id) {
    const Vec2 p{40 + rng.Uniform(-4, 4), 100 + rng.Uniform(-4, 4)};
    events.push_back({0, id, std::nullopt, MotionState{p, {5, 0}, 0}});
  }
  for (const UpdateEvent& e : events) {
    pa.Apply(e);
    oracle.Apply(e);
  }
  const double rho = 20.0 / (20.0 * 20.0);
  for (Tick t : {0, 10, 20}) {
    const auto result = pa.Query(t, rho);
    const Vec2 convoy_center{40.0 + 5.0 * t, 100.0};
    EXPECT_TRUE(result.region.Contains(convoy_center)) << "t=" << t;
    // Where the convoy used to be must no longer be dense (t >= 10 moves
    // it 50 miles away).
    if (t >= 10) {
      EXPECT_FALSE(result.region.Contains({40, 100})) << "t=" << t;
    }
  }
}

TEST(PaEngineTest, GridScanAgreesWithBnb) {
  PaEngine pa(SmallOptions());
  for (const UpdateEvent& e :
       MakeClusteredInserts(1500, 2, kExtent, 9.0, 0.2, 54)) {
    pa.Apply(e);
  }
  const double rho = 1.5 * 1500 / (kExtent * kExtent);
  const auto bnb = pa.Query(0, rho);
  const auto scan = pa.QueryGridScan(0, rho);
  const double base =
      std::max(1.0, std::max(bnb.region.Area(), scan.region.Area()));
  EXPECT_LT(SymmetricDifferenceArea(bnb.region, scan.region) / base, 0.15);
  EXPECT_LT(bnb.bnb.point_evals, scan.bnb.point_evals);
}

TEST(PaEngineTest, UpdateStreamKeepsModelInSync) {
  WorkloadConfig config;
  config.WithExtent(kExtent);
  config.num_objects = 600;
  config.max_update_interval = 10;
  config.network.grid_nodes = 8;
  config.seed = 55;
  const Dataset ds = GenerateDataset(config, 12);

  PaEngine incremental(SmallOptions());
  ReplayInto(ds, -1, &incremental);

  // Rebuild from scratch at t=12 with the objects' final states: the
  // incrementally maintained model must match the rebuilt one closely at
  // every tick both cover (deltas are algebraically exact; only fp noise
  // differs).
  ObjectTable table;
  for (const auto& batch : ds.ticks) {
    for (const UpdateEvent& e : batch) table.Apply(e);
  }
  PaEngine rebuilt(SmallOptions());
  rebuilt.AdvanceTo(12);
  for (const auto& [id, state] : table.LiveObjects()) {
    // Insert with the original reference tick preserved.
    UpdateEvent e{12, id, std::nullopt, state};
    // Rebuilt model writes [12, 12+H] from the *current* states, matching
    // the live ticks of the incremental model.
    rebuilt.Apply(e);
  }
  // Coverage contract: with U = 10 every live state covers ticks up to
  // t_ref + H >= (now - U) + H = 22, so compare only ticks <= now + W
  // where W = H - U = 10. There the two models are algebraically equal.
  Rng rng(56);
  for (Tick t : {12, 18, 22}) {
    for (int i = 0; i < 200; ++i) {
      const Vec2 p{rng.Uniform(0, kExtent), rng.Uniform(0, kExtent)};
      EXPECT_NEAR(incremental.Density(t, p), rebuilt.Density(t, p), 1e-9)
          << "t=" << t;
    }
  }
}

TEST(PaEngineTest, IntervalQueryCoversSnapshots) {
  PaEngine pa(SmallOptions());
  for (const UpdateEvent& e : MakeUniformInserts(900, kExtent, 1.5, 57)) {
    pa.Apply(e);
  }
  const double rho = 2.5 * 900 / (kExtent * kExtent);
  const auto interval = pa.QueryInterval(0, 5, rho);
  for (Tick t = 0; t <= 5; ++t) {
    const auto snap = pa.Query(t, rho);
    EXPECT_NEAR(IntersectionArea(interval.region, snap.region),
                snap.region.Area(), 1e-6)
        << "interval answer must cover snapshot at t=" << t;
  }
}

TEST(PaEngineTest, MorePolynomialsImproveAccuracy) {
  const auto events = MakeClusteredInserts(3000, 3, kExtent, 8.0, 0.15, 58);
  Oracle oracle(kExtent);
  for (const UpdateEvent& e : events) oracle.Apply(e);
  const double rho = 2.0 * 3000 / (kExtent * kExtent);

  auto run = [&](int g) {
    PaEngine pa(SmallOptions(g, 5));
    for (const UpdateEvent& e : events) pa.Apply(e);
    const Region truth = oracle.DenseRegions(0, rho, pa.options().l);
    const AccuracyMetrics m = CompareRegions(truth, pa.Query(0, rho).region);
    return m.false_positive_ratio + m.false_negative_ratio;
  };
  const double coarse = run(2);
  const double fine = run(10);
  EXPECT_LT(fine, coarse + 0.05)
      << "g=2 err " << coarse << " vs g=10 err " << fine;
}

// Options the model cannot hold are rejected at construction, before any
// fixed-size per-order table is sized from them.
TEST(PaEngineTest, RejectsDegreeOutsideTableBound) {
  PaEngine::Options o = SmallOptions(2, kChebMaxDegree);
  EXPECT_NO_THROW(PaEngine{o});
  o.degree = kChebMaxDegree + 1;
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
  o.degree = 40;
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
  o.degree = -1;
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
}

TEST(PaEngineTest, RejectsPolySideBelowOne) {
  PaEngine::Options o = SmallOptions();
  o.poly_side = 0;
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
  o.poly_side = -3;
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
}

TEST(PaEngineTest, RejectsEvalGridBelowPolySide) {
  PaEngine::Options o = SmallOptions(8);
  o.eval_grid = 8;
  EXPECT_NO_THROW(PaEngine{o});
  o.eval_grid = 7;
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
}

TEST(PaEngineTest, RejectsNonPositiveL) {
  PaEngine::Options o = SmallOptions();
  o.l = 0.0;
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
  o.l = -5.0;
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
  o.l = std::nan("");
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
}

TEST(PaEngineTest, RejectsNegativeHorizon) {
  PaEngine::Options o = SmallOptions();
  o.horizon = 0;
  EXPECT_NO_THROW(PaEngine{o});
  o.horizon = -1;
  EXPECT_THROW(PaEngine{o}, std::invalid_argument);
}

}  // namespace
}  // namespace pdr
