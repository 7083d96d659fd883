// PA's branch-and-bound against a reference search, and its interval
// bounds against brute force.
//
// ChebGrid::QueryDense carries T_k's edge values down its splits and
// merges wholly dense quadrants before Coalesced(). The reference below is
// the straightforward Section 6.3 recursion: a fresh Cheb2D::Bound per
// node, one rect per accepted box, no merging, then Coalesced(). The two
// must agree rect for rect (bitwise) with equal BnbStats, serial and
// parallel, over seeded models spanning grid sides, degrees, thresholds,
// leaf resolutions, and clustered, moving and empty fields.
//
// Over random dyadic boxes (the only boxes the search visits), the
// edge-carried bound must equal Bound() and the termwise ChebTRange bound
// bit for bit, and the expansion evaluated at sampled points must fall
// inside it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "pdr/cheb/cheb2d.h"
#include "pdr/cheb/cheb_grid.h"
#include "pdr/common/random.h"
#include "pdr/mobility/generator.h"
#include "pdr/parallel/thread_pool.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;

void ReferenceRecurse(const Cheb2D& poly, const Rect& cell, double x1,
                      double x2, double y1, double y2, double rho,
                      double min_edge_norm, Region* out, BnbStats* stats) {
  ++stats->nodes_visited;
  const Interval bound = poly.Bound(x1, x2, y1, y2);
  const double wx = cell.Width() / 2.0;
  const double wy = cell.Height() / 2.0;
  const Rect box(cell.x_lo + (x1 + 1.0) * wx, cell.y_lo + (y1 + 1.0) * wy,
                 cell.x_lo + (x2 + 1.0) * wx, cell.y_lo + (y2 + 1.0) * wy);
  if (bound.lo >= rho) {
    out->Add(box);
    ++stats->accepted_boxes;
    return;
  }
  if (bound.hi < rho) {
    ++stats->pruned_boxes;
    return;
  }
  if (x2 - x1 <= min_edge_norm && y2 - y1 <= min_edge_norm) {
    ++stats->point_evals;
    if (poly.Eval((x1 + x2) / 2.0, (y1 + y2) / 2.0) >= rho) out->Add(box);
    return;
  }
  const double mx = (x1 + x2) / 2.0;
  const double my = (y1 + y2) / 2.0;
  ReferenceRecurse(poly, cell, x1, mx, y1, my, rho, min_edge_norm, out,
                   stats);
  ReferenceRecurse(poly, cell, mx, x2, y1, my, rho, min_edge_norm, out,
                   stats);
  ReferenceRecurse(poly, cell, x1, mx, my, y2, rho, min_edge_norm, out,
                   stats);
  ReferenceRecurse(poly, cell, mx, x2, my, y2, rho, min_edge_norm, out,
                   stats);
}

Region ReferenceQueryDense(const ChebGrid& model, Tick t, double rho,
                           int eval_grid, BnbStats* stats) {
  const Grid& grid = model.macro_grid();
  const double min_edge_norm =
      2.0 * static_cast<double>(model.options().grid_side) / eval_grid;
  Region out;
  for (int cell = 0; cell < grid.cell_count(); ++cell) {
    const Cheb2D& poly = model.CellPoly(t, cell);
    if (poly.IsZero() && rho > 0) {
      ++stats->pruned_boxes;
      continue;
    }
    ReferenceRecurse(poly, grid.CellRect(cell), -1.0, 1.0, -1.0, 1.0, rho,
                     min_edge_norm, &out, stats);
  }
  return out.Coalesced();
}

std::string Mismatch(const Region& got, const BnbStats& got_stats,
                     const Region& want, const BnbStats& want_stats) {
  if (got.size() != want.size()) {
    return "rect count " + std::to_string(got.size()) + " vs reference " +
           std::to_string(want.size());
  }
  if (got.size() > 0 &&
      std::memcmp(got.rects().data(), want.rects().data(),
                  got.size() * sizeof(Rect)) != 0) {
    return "rects differ bitwise";
  }
  if (got_stats.nodes_visited != want_stats.nodes_visited ||
      got_stats.accepted_boxes != want_stats.accepted_boxes ||
      got_stats.pruned_boxes != want_stats.pruned_boxes ||
      got_stats.point_evals != want_stats.point_evals) {
    return "BnbStats differ: nodes " +
           std::to_string(got_stats.nodes_visited) + "/" +
           std::to_string(want_stats.nodes_visited) + " accepted " +
           std::to_string(got_stats.accepted_boxes) + "/" +
           std::to_string(want_stats.accepted_boxes) + " pruned " +
           std::to_string(got_stats.pruned_boxes) + "/" +
           std::to_string(want_stats.pruned_boxes) + " point_evals " +
           std::to_string(got_stats.point_evals) + "/" +
           std::to_string(want_stats.point_evals);
  }
  return "";
}

TEST(DifferentialTest, PaBnbMatchesReferenceSearchAcross54Models) {
  const int kSides[] = {1, 4, 10};
  const int kDegrees[] = {0, 1, 3, 5, 8, 15};
  ThreadPool pool(4);
  int models = 0;
  int64_t dense_rects = 0;
  for (int g : kSides) {
    for (int k : kDegrees) {
      // Two populated fields and one empty field per (g, k).
      for (int variant = 0; variant < 3; ++variant) {
        const uint64_t seed = static_cast<uint64_t>(g * 100 + k * 3 + variant);
        Rng rng(seed);
        const Tick horizon = 3;
        ChebGrid model({.extent = kExtent,
                        .grid_side = g,
                        .degree = k,
                        .horizon = horizon,
                        .l = 20.0});
        int objects = 0;
        if (variant < 2) {
          objects = static_cast<int>(rng.UniformInt(100, 400));
          const int clusters = static_cast<int>(rng.UniformInt(1, 4));
          for (const UpdateEvent& e :
               MakeClusteredInserts(objects, clusters, kExtent,
                                    rng.Uniform(5.0, 15.0), 0.2, seed)) {
            model.Apply(e);
          }
          if (variant == 1) {
            for (const UpdateEvent& e :
                 MakeUniformInserts(objects / 4, kExtent, 4.0, seed + 1)) {
              model.Apply(e);
            }
          }
        }
        const Tick t = static_cast<Tick>(seed % (horizon + 1));
        // Leaf resolutions: the coarsest allowed (one leaf per macro-cell
        // edge), a power-of-two multiple, and a non-dyadic one.
        const int eval_grids[] = {g, g * 16, g * 25};
        const int eval_grid = eval_grids[rng.UniformInt(0, 2)];
        const double mean = std::max(objects, 50) / (kExtent * kExtent);
        // Empty fields also run at rho = 0, where every box is accepted.
        const double rhos[] = {variant == 2 ? 0.0 : 0.5 * mean, 2.0 * mean,
                               rng.Uniform(3.0, 8.0) * mean};
        for (double rho : rhos) {
          BnbStats want_stats;
          const Region want =
              ReferenceQueryDense(model, t, rho, eval_grid, &want_stats);
          dense_rects += static_cast<int64_t>(want.size());
          BnbStats serial_stats;
          const Region serial =
              model.QueryDense(t, rho, eval_grid, &serial_stats);
          BnbStats par_stats;
          const Region par =
              model.QueryDense(t, rho, eval_grid, &par_stats, &pool);
          const std::string where = "g=" + std::to_string(g) +
                                    " k=" + std::to_string(k) +
                                    " variant=" + std::to_string(variant) +
                                    " eval_grid=" + std::to_string(eval_grid) +
                                    " rho=" + std::to_string(rho) + ": ";
          const std::string s1 =
              Mismatch(serial, serial_stats, want, want_stats);
          EXPECT_TRUE(s1.empty()) << where << "serial " << s1;
          const std::string s4 = Mismatch(par, par_stats, want, want_stats);
          EXPECT_TRUE(s4.empty()) << where << "4 threads " << s4;
        }
        ++models;
      }
    }
  }
  EXPECT_EQ(models, 54);
  EXPECT_GT(dense_rects, 0);  // the sweep is not vacuous
}

// A random expansion of degree k: a few signed indicator bumps.
Cheb2D RandomPoly(int k, Rng* rng) {
  Cheb2D poly(k);
  const int bumps = static_cast<int>(rng->UniformInt(1, 8));
  for (int b = 0; b < bumps; ++b) {
    double x1 = rng->Uniform(-1, 1), x2 = rng->Uniform(-1, 1);
    double y1 = rng->Uniform(-1, 1), y2 = rng->Uniform(-1, 1);
    if (x1 > x2) std::swap(x1, x2);
    if (y1 > y2) std::swap(y1, y2);
    poly.AddIndicator(x1, x2, y1, y2, rng->Uniform(-2, 3));
  }
  return poly;
}

// The bound as Section 6.3 states it: per term, the product of the two
// orders' ChebTRange, scaled by the coefficient, summed in storage order.
Interval TermwiseBound(const Cheb2D& poly, double x1, double x2, double y1,
                       double y2) {
  Interval total{0.0, 0.0};
  for (int i = 0; i <= poly.degree(); ++i) {
    for (int j = 0; i + j <= poly.degree(); ++j) {
      const double a = poly.coeff(i, j);
      if (a == 0.0) continue;
      total += (ChebTRange(i, x1, x2) * ChebTRange(j, y1, y2)) * a;
    }
  }
  return total;
}

// Random root-to-depth descents through dyadic boxes, carrying the edge
// values exactly as the search does.
TEST(DifferentialTest, PaEdgeCarriedBoundBitIdenticalToBound) {
  Rng rng(2024);
  int64_t compared = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(0, kChebMaxDegree));
    const Cheb2D poly = RandomPoly(k, &rng);
    double x1 = -1.0, x2 = 1.0, y1 = -1.0, y2 = 1.0;
    std::vector<double> tx1(k + 1), tx2(k + 1), ty1(k + 1), ty2(k + 1);
    ChebTEdge(k, x1, tx1.data());
    ChebTEdge(k, x2, tx2.data());
    ChebTEdge(k, y1, ty1.data());
    ChebTEdge(k, y2, ty2.data());
    const int depth = static_cast<int>(rng.UniformInt(1, 24));
    for (int level = 0; level <= depth; ++level) {
      const Interval carried = poly.BoundFromEdges(
          x1, x2, y1, y2, tx1.data(), tx2.data(), ty1.data(), ty2.data());
      const Interval fresh = poly.Bound(x1, x2, y1, y2);
      const Interval termwise = TermwiseBound(poly, x1, x2, y1, y2);
      ASSERT_EQ(std::memcmp(&carried, &fresh, sizeof(Interval)), 0)
          << "trial " << trial << " k=" << k << " level " << level
          << ": carried [" << carried.lo << ", " << carried.hi
          << "] vs Bound [" << fresh.lo << ", " << fresh.hi << "]";
      ASSERT_EQ(std::memcmp(&fresh, &termwise, sizeof(Interval)), 0)
          << "trial " << trial << " k=" << k << " level " << level
          << ": Bound [" << fresh.lo << ", " << fresh.hi
          << "] vs termwise ChebTRange [" << termwise.lo << ", "
          << termwise.hi << "]";
      ++compared;
      // Into a random quadrant: the new edge's values replace one side.
      const double mx = (x1 + x2) / 2.0;
      const double my = (y1 + y2) / 2.0;
      if (rng.UniformInt(0, 1) == 0) {
        x2 = mx;
        ChebTEdge(k, mx, tx2.data());
      } else {
        x1 = mx;
        ChebTEdge(k, mx, tx1.data());
      }
      if (rng.UniformInt(0, 1) == 0) {
        y2 = my;
        ChebTEdge(k, my, ty2.data());
      } else {
        y1 = my;
        ChebTEdge(k, my, ty1.data());
      }
    }
  }
  EXPECT_GT(compared, 1000);
}

// Brute force on the pruning bound: every sampled value of the expansion
// over a dyadic box lies inside Bound(). The slack only absorbs the
// rounding gap between Eval's three-term recurrence and the bound's
// cos(k * arccos(x)) edge values; a wrong extremum or a dropped term
// misses by orders of magnitude more.
TEST(DifferentialTest, PaBoundContainsSampledValuesOnDyadicBoxes) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const int k = static_cast<int>(rng.UniformInt(0, kChebMaxDegree));
    const Cheb2D poly = RandomPoly(k, &rng);
    double scale = 0.0;
    for (double a : poly.raw()) scale += std::fabs(a);
    const double slack = 1e-12 * (1.0 + scale);
    // A dyadic box at a random depth and position.
    const int level_x = static_cast<int>(rng.UniformInt(0, 10));
    const int level_y = static_cast<int>(rng.UniformInt(0, 10));
    const double wx = 2.0 / static_cast<double>(1 << level_x);
    const double wy = 2.0 / static_cast<double>(1 << level_y);
    const double x1 = -1.0 + wx * rng.UniformInt(0, (1 << level_x) - 1);
    const double y1 = -1.0 + wy * rng.UniformInt(0, (1 << level_y) - 1);
    const double x2 = x1 + wx, y2 = y1 + wy;
    const Interval bound = poly.Bound(x1, x2, y1, y2);
    ASSERT_LE(bound.lo, bound.hi) << "trial " << trial;
    // Corners, edge midpoints, the center, and random interior points.
    std::vector<std::pair<double, double>> points;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        points.push_back({x1 + wx * i / 2.0, y1 + wy * j / 2.0});
      }
    }
    for (int s = 0; s < 64; ++s) {
      points.push_back({rng.Uniform(x1, x2), rng.Uniform(y1, y2)});
    }
    for (const auto& [x, y] : points) {
      const double v = poly.Eval(x, y);
      EXPECT_GE(v, bound.lo - slack)
          << "trial " << trial << " k=" << k << " at (" << x << ", " << y
          << ") in [" << x1 << ", " << x2 << "] x [" << y1 << ", " << y2
          << "]";
      EXPECT_LE(v, bound.hi + slack)
          << "trial " << trial << " k=" << k << " at (" << x << ", " << y
          << ") in [" << x1 << ", " << x2 << "] x [" << y1 << ", " << y2
          << "]";
    }
  }
}

}  // namespace
}  // namespace pdr
