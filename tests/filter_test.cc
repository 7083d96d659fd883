#include "pdr/histogram/filter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "pdr/common/random.h"
#include "pdr/core/oracle.h"
#include "pdr/mobility/generator.h"

namespace pdr {
namespace {

TEST(ThresholdTest, MinObjectsForDensity) {
  EXPECT_EQ(MinObjectsForDensity(0.01, 30.0), 9);   // 0.01*900 = 9 exactly
  EXPECT_EQ(MinObjectsForDensity(0.011, 30.0), 10); // 9.9 -> 10
  EXPECT_EQ(MinObjectsForDensity(1.0, 2.0), 4);
  EXPECT_EQ(MinObjectsForDensity(0.0, 30.0), 0);
}

TEST(NeighborhoodTest, ConservativeHalfWidth) {
  // (2a+1)*l_c <= l - l_c.
  EXPECT_EQ(ConservativeHalfWidth(2.0, 1.0), 0);   // block = 1 cell
  EXPECT_EQ(ConservativeHalfWidth(3.0, 1.0), 0);
  EXPECT_EQ(ConservativeHalfWidth(3.9, 1.0), 0);
  EXPECT_EQ(ConservativeHalfWidth(4.0, 1.0), 1);   // block = 3 cells
  EXPECT_EQ(ConservativeHalfWidth(6.0, 1.0), 2);   // block = 5 cells
  EXPECT_EQ(ConservativeHalfWidth(30.0, 10.0), 0); // eta = 3
  // l < 2*l_c: no conservative block exists.
  EXPECT_LT(ConservativeHalfWidth(1.5, 1.0), 0);
}

TEST(NeighborhoodTest, ExpansiveHalfWidth) {
  EXPECT_EQ(ExpansiveHalfWidth(2.0, 1.0), 1);
  EXPECT_EQ(ExpansiveHalfWidth(3.0, 1.0), 2);  // ceil(1.5)
  EXPECT_EQ(ExpansiveHalfWidth(4.0, 1.0), 2);
  EXPECT_EQ(ExpansiveHalfWidth(30.0, 10.0), 2);
  EXPECT_EQ(ExpansiveHalfWidth(60.0, 10.0), 3);
}

// Sign of n*c - l for 0 <= n < 2^31 and positive finite doubles c and l,
// from the 53-bit mantissas multiplied in 128-bit integers — arithmetic
// independent of the fma the filter decides with.
int ExactSign(int64_t n, double c, double l) {
  if (n == 0) return -1;
  int ec = 0, el = 0;
  const __int128 mc = static_cast<int64_t>(std::ldexp(std::frexp(c, &ec), 53));
  const __int128 ml = static_cast<int64_t>(std::ldexp(std::frexp(l, &el), 53));
  // c = mc * 2^(ec-53) and l = ml * 2^(el-53), with mc, ml in [2^52, 2^53).
  if (ec > el) return 1;        // n*c >= c >= 2^(ec-1) >= 2^el > l
  if (el - ec > 64) return -1;  // n*c < 2^(ec+31) <= 2^(el-1) <= l
  const __int128 lhs = mc * n;
  const __int128 rhs = ml << (el - ec);
  return lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
}

// Both half-widths against their defining inequalities, decided exactly,
// at ratios l/l_c within 0, 1 ulp, 5e-13, 1e-12 and 1e-9 (relative) of
// every integer up to 40 — where a rounded quotient or an epsilon tips a
// floor or ceil — for cell edges extent/m and random ones.
TEST(NeighborhoodTest, HalfWidthsExactAtNearIntegerRatios) {
  std::vector<double> edges;
  for (double extent : {3.0, 100.0, 200.0, 1000.0, 1234.5}) {
    for (int m = 1; m <= 120; ++m) edges.push_back(extent / m);
  }
  Rng rng(1212);
  for (int i = 0; i < 300; ++i) edges.push_back(rng.Uniform(0.01, 100.0));
  int64_t pairs = 0;
  for (double lc : edges) {
    for (int k = 1; k <= 40; ++k) {
      const double base = k * lc;
      std::vector<double> ls = {base, std::nextafter(base, 0.0),
                                std::nextafter(base, 1e300)};
      for (double delta : {5e-13, 1e-12, 1e-9}) {
        ls.push_back(base * (1 + delta));
        ls.push_back(base * (1 - delta));
      }
      for (double l : ls) {
        const int a = ConservativeHalfWidth(l, lc);
        ASSERT_GE(a, -1);
        // (2a+2)*l_c <= l < (2a+4)*l_c.
        ASSERT_LE(ExactSign(2 * (a + 1), lc, l), 0)
            << "conservative a=" << a << " l=" << l << " l_c=" << lc;
        ASSERT_GT(ExactSign(2 * (a + 2), lc, l), 0)
            << "conservative a=" << a << " l=" << l << " l_c=" << lc;
        const int b = ExpansiveHalfWidth(l, lc);
        // 2(b-1)*l_c < l <= 2b*l_c.
        ASSERT_GE(ExactSign(2 * b, lc, l), 0)
            << "expansive b=" << b << " l=" << l << " l_c=" << lc;
        ASSERT_TRUE(b == 0 || ExactSign(2 * (b - 1), lc, l) < 0)
            << "expansive b=" << b << " l=" << l << " l_c=" << lc;
        ++pairs;
      }
    }
  }
  EXPECT_GE(pairs, 100000);
  // The two ratios the boundary tests drive through FR end to end.
  EXPECT_EQ(ExpansiveHalfWidth(20.00000000001, 10.0), 2);
  EXPECT_EQ(ConservativeHalfWidth(39.99999999999, 10.0), 0);
}

TEST(NeighborhoodTest, ConservativeBlockInsideEveryLSquare) {
  // Geometric soundness of the half-width formula itself: for any point p
  // in a cell, the conservative block is inside S_l(p).
  for (double l : {2.0, 3.0, 4.5, 6.0, 8.7}) {
    const double lc = 1.0;
    const int a = ConservativeHalfWidth(l, lc);
    if (a < 0) continue;
    // Cell [5,6)^2; block spans [5-a, 6+a]^2 in cell units.
    const Rect block(5 - a, 5 - a, 6 + a, 6 + a);
    for (const Vec2 corner :
         {Vec2{5, 5}, Vec2{6, 5}, Vec2{5, 6}, Vec2{6, 6}}) {
      const Rect square = Rect::CenteredSquare(corner, l);
      EXPECT_TRUE(square.Contains(block)) << "l=" << l << " p=" << corner;
    }
  }
}

TEST(NeighborhoodTest, ExpansiveBlockCoversEveryLSquare) {
  for (double l : {2.0, 3.0, 4.5, 6.0, 8.7}) {
    const double lc = 1.0;
    const int b = ExpansiveHalfWidth(l, lc);
    const Rect block(5 - b, 5 - b, 6 + b, 6 + b);
    for (const Vec2 corner :
         {Vec2{5, 5}, Vec2{6, 5}, Vec2{5, 6}, Vec2{6, 6}}) {
      const Rect square = Rect::CenteredSquare(corner, l);
      EXPECT_TRUE(block.Contains(square)) << "l=" << l << " p=" << corner;
    }
  }
}

class FilterSoundnessTest : public ::testing::TestWithParam<
                                std::tuple<double, double, uint64_t>> {};

// The load-bearing property (Section 5.2): accepted cells contain only
// dense points, rejected cells contain no dense point — verified against
// the brute-force oracle at random in-cell probes.
TEST_P(FilterSoundnessTest, AcceptsAndRejectsAreSound) {
  const auto [rho_scale, l, seed] = GetParam();
  const double extent = 100.0;
  DensityHistogram dh({.extent = extent, .cells_per_side = 20, .horizon = 4});
  Oracle oracle(extent);
  for (const UpdateEvent& e :
       MakeClusteredInserts(1200, 3, extent, 4.0, 0.2, seed)) {
    dh.Apply(e);
    oracle.Apply(e);
  }
  // rho chosen near interesting territory: average count in an l-square
  // is 1200 * l^2 / extent^2; scale around it.
  const double rho = rho_scale * 1200.0 / (extent * extent);
  const int64_t n_min = MinObjectsForDensity(rho, l);
  const FilterResult filter = FilterCells(dh, 0, rho, l);
  EXPECT_EQ(filter.accepted + filter.rejected + filter.candidates, 400);

  Rng rng(seed ^ 0xabc);
  const Grid& grid = dh.grid();
  int accepted_checked = 0, rejected_checked = 0;
  for (int row = 0; row < 20; ++row) {
    for (int col = 0; col < 20; ++col) {
      const CellClass cls = filter.At(col, row);
      if (cls == CellClass::kCandidate) continue;
      const Rect cell = grid.CellRect(col, row);
      for (int probe = 0; probe < 5; ++probe) {
        const Vec2 p{rng.Uniform(cell.x_lo, cell.x_hi),
                     rng.Uniform(cell.y_lo, cell.y_hi)};
        const int64_t count = oracle.CountInSquare(0, p, l);
        if (cls == CellClass::kAccept) {
          EXPECT_GE(count, n_min) << "accepted cell has sparse point " << p;
          ++accepted_checked;
        } else {
          EXPECT_LT(count, n_min) << "rejected cell has dense point " << p;
          ++rejected_checked;
        }
      }
    }
  }
  // The workload must actually exercise both outcomes somewhere across
  // the parameter sweep; at least rejects always exist.
  EXPECT_GT(rejected_checked, 0);
  (void)accepted_checked;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FilterSoundnessTest,
    ::testing::Combine(::testing::Values(0.5, 2.0, 6.0, 20.0),
                       ::testing::Values(10.0, 17.0, 25.0),
                       ::testing::Values(uint64_t{3}, uint64_t{77})));

TEST(FilterTest, AcceptsAppearWithHighConcentration) {
  // A tight blob far denser than rho must produce accepted cells.
  const double extent = 100.0;
  DensityHistogram dh({.extent = extent, .cells_per_side = 20, .horizon = 2});
  std::vector<UpdateEvent> events =
      MakeClusteredInserts(2000, 1, extent, 2.0, 0.0, 5);
  for (const UpdateEvent& e : events) dh.Apply(e);
  const double l = 20.0;
  const double rho = 100.0 / (l * l);  // 100 objects per l-square
  const FilterResult filter = FilterCells(dh, 0, rho, l);
  EXPECT_GT(filter.accepted, 0);
  EXPECT_GT(filter.rejected, 300);
}

TEST(FilterTest, EverythingRejectedWhenEmpty) {
  DensityHistogram dh({.extent = 100.0, .cells_per_side = 10, .horizon = 2});
  const FilterResult filter = FilterCells(dh, 0, 0.01, 20.0);
  EXPECT_EQ(filter.rejected, 100);
  EXPECT_EQ(filter.accepted, 0);
  EXPECT_EQ(filter.candidates, 0);
}

TEST(FilterTest, ZeroThresholdAcceptsEverything) {
  DensityHistogram dh({.extent = 100.0, .cells_per_side = 10, .horizon = 2});
  const FilterResult filter = FilterCells(dh, 0, 0.0, 20.0);
  EXPECT_EQ(filter.accepted, 100);
}

TEST(FilterTest, NaiveVariantMatchesPrefixSums) {
  const double extent = 100.0;
  DensityHistogram dh({.extent = extent, .cells_per_side = 20, .horizon = 2});
  for (const UpdateEvent& e :
       MakeClusteredInserts(1200, 3, extent, 5.0, 0.25, 7)) {
    dh.Apply(e);
  }
  for (double l : {10.0, 17.0, 30.0}) {
    for (double rho_scale : {0.5, 2.0, 8.0}) {
      const double rho = rho_scale * 1200 / (extent * extent);
      const FilterResult fast = FilterCells(dh, 0, rho, l);
      const FilterResult naive = FilterCellsNaive(dh, 0, rho, l);
      EXPECT_EQ(fast.classes, naive.classes)
          << "l=" << l << " rho=" << rho;
      EXPECT_EQ(fast.accepted, naive.accepted);
      EXPECT_EQ(fast.rejected, naive.rejected);
      EXPECT_EQ(fast.candidates, naive.candidates);
    }
  }
}

TEST(FilterTest, CellsAsRegionOptimisticCoversPessimistic) {
  const double extent = 100.0;
  DensityHistogram dh({.extent = extent, .cells_per_side = 20, .horizon = 2});
  for (const UpdateEvent& e :
       MakeClusteredInserts(1500, 2, extent, 5.0, 0.3, 6)) {
    dh.Apply(e);
  }
  const double rho = 3.0 * 1500 / (extent * extent);
  const FilterResult filter = FilterCells(dh, 0, rho, 15.0);
  const Region optimistic = CellsAsRegion(filter, dh.grid(), true);
  const Region pessimistic = CellsAsRegion(filter, dh.grid(), false);
  EXPECT_GE(optimistic.Area(), pessimistic.Area());
  // Pessimistic region is a subset of the optimistic one.
  EXPECT_NEAR(IntersectionArea(optimistic, pessimistic), pessimistic.Area(),
              1e-6);
}

// The cells of `filter` that CellsAsRegion includes, one rect per cell in
// row-major order, coalesced by the generic event sweep: the reference
// the grid-native CellsAsRegion must reproduce rect for rect.
Region CoalescedCells(const FilterResult& filter, const Grid& grid,
                      bool include_candidates) {
  Region cells;
  const int m = filter.cells_per_side;
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < m; ++col) {
      const CellClass cls = filter.At(col, row);
      if (cls == CellClass::kAccept ||
          (include_candidates && cls == CellClass::kCandidate)) {
        cells.Add(grid.CellRect(col, row));
      }
    }
  }
  return cells.Coalesced();
}

TEST(FilterTest, CellsAsRegionBitIdenticalToCoalescedCells) {
  Rng rng(41);
  int cases = 0;
  for (const int m : {1, 2, 3, 7, 64, 256}) {
    // Class patterns: seeded random at three mixes, a blob (accept disk in
    // a candidate ring), empty, full, and a single row / column.
    std::vector<std::vector<CellClass>> patterns;
    const size_t n = static_cast<size_t>(m) * m;
    for (const double accept_share : {0.1, 0.5, 0.9}) {
      std::vector<CellClass> p(n);
      for (CellClass& c : p) {
        const double u = rng.NextDouble();
        c = u < accept_share ? CellClass::kAccept
            : u < accept_share + (1 - accept_share) / 2
                ? CellClass::kCandidate
                : CellClass::kReject;
      }
      patterns.push_back(std::move(p));
    }
    {
      std::vector<CellClass> p(n, CellClass::kReject);
      const double cx = rng.Uniform(0.0, m), cy = rng.Uniform(0.0, m);
      const double radius = rng.Uniform(0.2, 0.5) * m;
      for (int row = 0; row < m; ++row) {
        for (int col = 0; col < m; ++col) {
          const double d = std::hypot(col + 0.5 - cx, row + 0.5 - cy);
          if (d < radius) {
            p[static_cast<size_t>(row) * m + col] = CellClass::kAccept;
          } else if (d < 1.5 * radius) {
            p[static_cast<size_t>(row) * m + col] = CellClass::kCandidate;
          }
        }
      }
      patterns.push_back(std::move(p));
    }
    patterns.emplace_back(n, CellClass::kReject);
    patterns.emplace_back(n, CellClass::kAccept);
    {
      std::vector<CellClass> row_only(n, CellClass::kReject);
      std::vector<CellClass> col_only(n, CellClass::kReject);
      const int k = static_cast<int>(rng.UniformInt(0, m - 1));
      for (int i = 0; i < m; ++i) {
        row_only[static_cast<size_t>(k) * m + i] = CellClass::kAccept;
        col_only[static_cast<size_t>(i) * m + k] = CellClass::kCandidate;
      }
      patterns.push_back(std::move(row_only));
      patterns.push_back(std::move(col_only));
    }

    for (const double extent : {1.0, 100.0, 333.3, 1000.0}) {
      const Grid grid(extent, m);
      for (size_t pi = 0; pi < patterns.size(); ++pi) {
        FilterResult filter;
        filter.cells_per_side = m;
        filter.classes = patterns[pi];
        for (const bool include_candidates : {false, true}) {
          const Region got = CellsAsRegion(filter, grid, include_candidates);
          const Region want = CoalescedCells(filter, grid, include_candidates);
          ASSERT_EQ(got.size(), want.size())
              << "m=" << m << " extent=" << extent << " pattern=" << pi
              << " candidates=" << include_candidates;
          EXPECT_TRUE(got.IsEmpty() ||
                      std::memcmp(got.rects().data(), want.rects().data(),
                                  got.size() * sizeof(Rect)) == 0)
              << "m=" << m << " extent=" << extent << " pattern=" << pi
              << " candidates=" << include_candidates;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 6 * 4 * 8 * 2);
}

}  // namespace
}  // namespace pdr
