// Property test for Definition 1's l-square edge semantics.
//
// The paper's l-square of a point p includes its top and right edges and
// excludes its left and bottom edges (so translated copies of the square
// tile the plane without double counting). Objects placed *exactly* on
// those edges are where the filter, the range query, and the plane sweep
// can silently disagree by one object — which flips a cell's dense
// verdict whenever rho sits between the two counts. This file pins the
// convention directly on the brute-force oracle, then drives 100 seeded
// placements of edge-exact objects (integer coordinates, exactly
// representable, aligned to histogram cell boundaries) through the full
// FR engine and compares against the oracle with thresholds chosen a
// half-object above and below each anchor's exact count.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "pdr/common/random.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/oracle.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;
constexpr double kL = 20.0;   // two histogram cells at m = 20
constexpr Tick kQt = 4;

MotionState StateReaching(Vec2 target, double vx, double vy, Tick at) {
  MotionState s;
  s.pos = {target.x - vx * static_cast<double>(at),
           target.y - vy * static_cast<double>(at)};
  s.vel = {vx, vy};
  s.t_ref = 0;
  return s;
}

TEST(BoundaryTest, OracleCountsClosedTopRightOpenLeftBottom) {
  Oracle oracle(kExtent);
  const Vec2 c{100.0, 100.0};
  const double h = kL / 2;
  struct Placement {
    Vec2 pos;
    bool counted;
    const char* what;
  };
  const Placement placements[] = {
      {{c.x, c.y}, true, "center"},
      {{c.x - h, c.y}, false, "left edge"},
      {{c.x + h, c.y}, true, "right edge"},
      {{c.x, c.y - h}, false, "bottom edge"},
      {{c.x, c.y + h}, true, "top edge"},
      {{c.x + h, c.y + h}, true, "top-right corner"},
      {{c.x - h, c.y - h}, false, "bottom-left corner"},
      {{c.x - h, c.y + h}, false, "top-left corner"},
      {{c.x + h, c.y - h}, false, "bottom-right corner"},
  };
  ObjectId id = 1;
  for (const Placement& p : placements) {
    UpdateEvent e;
    e.tick = 0;
    e.id = id++;
    e.new_state = StateReaching(p.pos, 0, 0, 0);
    oracle.Apply(e);
  }
  int64_t want = 0;
  for (const Placement& p : placements) want += p.counted ? 1 : 0;
  EXPECT_EQ(oracle.CountInSquare(0, c, kL), want);

  // And one by one: each placement alone counts iff its edge is closed.
  for (const Placement& p : placements) {
    Oracle solo(kExtent);
    UpdateEvent e;
    e.tick = 0;
    e.id = 1;
    e.new_state = StateReaching(p.pos, 0, 0, 0);
    solo.Apply(e);
    EXPECT_EQ(solo.CountInSquare(0, c, kL), p.counted ? 1 : 0) << p.what;
  }
}

// Three static objects at `pos`, tick 0, in an FR engine with cell edge
// 10 and in the oracle; checks FR and the oracle agree on whether `p` is
// dense at l with rho = 3 / l^2, and that the oracle's count is `count`.
void ExpectFrAgreesAtPoint(Vec2 pos, double l, Vec2 p, int64_t count) {
  FrEngine fr({.extent = 100.0, .histogram_side = 10});
  Oracle oracle(100.0);
  for (ObjectId id = 1; id <= 3; ++id) {
    UpdateEvent e;
    e.tick = 0;
    e.id = id;
    e.new_state = StateReaching(pos, 0, 0, 0);
    fr.Apply(e);
    oracle.Apply(e);
  }
  const double rho = 3.0 / (l * l);
  EXPECT_EQ(oracle.CountInSquare(0, p, l), count);
  EXPECT_EQ(oracle.DenseRegions(0, rho, l).Contains(p), count >= 3);
  EXPECT_EQ(fr.Query(0, rho, l).region.Contains(p), count >= 3)
      << "l=" << l << " p=" << p.ToString();
}

// l a hair above two cells: the l-square of a point at the right edge of
// cell 0 reaches x = 20, so the expansive block must span two cells each
// side. One cell (an epsilon before ceil) rejects the cell, and FR misses
// the dense point.
TEST(BoundaryTest, FrMatchesOracleWhenLIsAHairAboveTwoCells) {
  ExpectFrAgreesAtPoint({20.0, 5.0}, 20.00000000001, {9.9999999999999, 5.0},
                        3);
}

// l a hair below four cells: the conservative block of cell 1 is that one
// cell, not three. Three cells (an epsilon before floor) accept cell 1
// from objects in cell 2 that no l-square centered at x = 10 holds.
TEST(BoundaryTest, FrMatchesOracleWhenLIsAHairBelowFourCells) {
  ExpectFrAgreesAtPoint({29.9999999999999, 5.0}, 39.99999999999, {10.0, 5.0},
                        0);
}

TEST(BoundaryTest, FrMatchesOracleOnEdgeExactPlacements) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed * 7919 + 13);
    FrEngine fr({.extent = kExtent,
                 .histogram_side = 20,
                 .horizon = 16,
                 .buffer_pages = 64,
                 .io_ms = 10.0});
    Oracle oracle(kExtent);
    ObjectId next_id = 1;
    std::vector<Vec2> targets;  // predicted positions at kQt, all exact
    auto add = [&](Vec2 target, double vx, double vy) {
      UpdateEvent e;
      e.tick = 0;
      e.id = next_id++;
      e.new_state = StateReaching(target, vx, vy, kQt);
      fr.Apply(e);
      oracle.Apply(e);
      targets.push_back(target);
    };

    // Anchors on interior histogram cell corners: the l-square edges of
    // an anchor then lie exactly on cell boundaries too, stressing the
    // filter's conservative counts at the same time as the sweep.
    std::vector<Vec2> anchors;
    for (int a = 0; a < 3; ++a) {
      anchors.push_back({10.0 * static_cast<double>(rng.UniformInt(3, 17)),
                         10.0 * static_cast<double>(rng.UniformInt(3, 17))});
    }
    const double h = kL / 2;
    for (const Vec2& c : anchors) {
      // One object exactly on each edge (offset along the edge is a
      // multiple of 5, exactly representable), plus two corners and one
      // interior object. Integer velocities keep the predicted position
      // at kQt exact: pos = target - v * kQt has no rounding.
      const double t1 = 5.0 * static_cast<double>(rng.UniformInt(-1, 1));
      const double t2 = 5.0 * static_cast<double>(rng.UniformInt(-1, 1));
      const auto vel = [&] {
        return static_cast<double>(rng.UniformInt(-2, 2));
      };
      add({c.x - h, c.y + t1}, vel(), vel());  // left edge: excluded
      add({c.x + h, c.y + t2}, vel(), vel());  // right edge: included
      add({c.x + t1, c.y - h}, vel(), vel());  // bottom edge: excluded
      add({c.x + t2, c.y + h}, vel(), vel());  // top edge: included
      add({c.x + h, c.y + h}, vel(), vel());   // top-right corner: included
      add({c.x - h, c.y - h}, vel(), vel());   // bottom-left: excluded
      add({c.x, c.y}, vel(), vel());           // interior
    }

    for (const Vec2& c : anchors) {
      const int64_t n = oracle.CountInSquare(kQt, c, kL);
      ASSERT_GE(n, 1) << "anchor lost its objects (seed " << seed << ")";
      // Thresholds straddling the exact count: one object miscounted on
      // any edge flips the dense verdict at the anchor.
      for (const double delta : {-0.5, +0.5}) {
        const double rho = (static_cast<double>(n) + delta) / (kL * kL);
        const auto got = fr.Query(kQt, rho, kL);
        const Region want = oracle.DenseRegions(kQt, rho, kL);
        EXPECT_NEAR(SymmetricDifferenceArea(got.region, want), 0.0, 1e-9)
            << "seed " << seed << " anchor " << c.ToString() << " rho*l2="
            << static_cast<double>(n) + delta;
        // Membership probes at every edge-exact position and anchor.
        for (const Vec2& p : targets) {
          EXPECT_EQ(got.region.Contains(p), want.Contains(p))
              << "seed " << seed << " at " << p.ToString();
        }
        for (const Vec2& a : anchors) {
          EXPECT_EQ(got.region.Contains(a), want.Contains(a))
              << "seed " << seed << " anchor " << a.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace pdr
