// Differential battery for the FFT whole-plane density engine.
//
// Two oracles pin the engine down from opposite sides:
//
//   * numeric: the engine's block sums (a summed-area table over the
//     raster counts) must equal naive per-cell summation of
//     RasterizeCounts for half-widths from a single cell up to blocks
//     wider than the grid, on random fields, a single point mass
//     and stacks dropped exactly on gridlines; the shared
//     SummedAreaTable is also checked on count images built directly.
//   * semantic: across 200 seeded scenarios the engine's accept region
//     must be a subset of the exact FR answer and its accepts+candidates
//     superset must contain it (the documented sandwich, DESIGN.md §15).
//     Containment is asserted by area (the closed-top/right raster edge
//     vs. the report grid's half-open edge differ on a measure-zero set).
//     Failures shrink: the object count is halved while the scenario
//     still fails, and the minimal size is reported with the seed.
//
// tests/fft_metamorphic_test.cc holds the invariance battery
// (translation / reflection / mass / monotonicity / edge-exact
// placements); tests/differential_test.cc runs the ladder's FFT rung
// against exact FR across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "pdr/common/random.h"
#include "pdr/common/region.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/oracle.h"
#include "pdr/fft/fft_engine.h"
#include "pdr/fft/raster.h"
#include "pdr/histogram/filter.h"
#include "pdr/mobility/generator.h"
#include "pdr/obs/obs.h"
#include "pdr/resilience/deadline.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;

// ---------------------------------------------------------------------------
// Numeric layer: block sums vs. naive per-cell summation.

// Sum of counts over the cells within Chebyshev distance h of (col, row),
// clipped at the grid edge, one cell at a time.
int64_t NaiveBlockSum(const std::vector<int64_t>& counts, int m, int col,
                      int row, int h) {
  int64_t sum = 0;
  for (int r = std::max(0, row - h); r <= std::min(m - 1, row + h); ++r) {
    for (int c = std::max(0, col - h); c <= std::min(m - 1, col + h); ++c) {
      sum += counts[static_cast<size_t>(r) * m + c];
    }
  }
  return sum;
}

TEST(FftTest, BlockSumsMatchNaiveSummation) {
  Rng rng(13);
  for (const int m : {1, 2, 7, 64}) {
    const double g = kExtent / m;
    // Three fields per grid: random positions (with stacked duplicates),
    // a single point mass, and stacks dropped exactly on gridlines
    // (including the domain corners).
    std::vector<std::vector<Vec2>> fields(3);
    for (int i = 0; i < 300; ++i) {
      const Vec2 p{rng.Uniform(0.0, kExtent), rng.Uniform(0.0, kExtent)};
      const int copies = rng.NextDouble() < 0.1 ? 5 : 1;
      for (int k = 0; k < copies; ++k) fields[0].push_back(p);
    }
    fields[1].assign(7, Vec2{0.4 * kExtent, 0.7 * kExtent});
    for (int i = 0; i <= m; i += std::max(1, m / 5)) {
      for (int j = 0; j <= m; j += std::max(1, m / 3)) {
        for (int k = 0; k < 3; ++k) fields[2].push_back({i * g, j * g});
      }
    }
    fields[2].push_back({kExtent, kExtent});

    // Every half-width on the small grids; a spread through h >= m on the
    // large one (naive summation is O(m^2 h^2)).
    std::vector<int> widths;
    if (m <= 7) {
      for (int h = 0; h <= m + 1; ++h) widths.push_back(h);
    } else {
      widths = {0, 1, 2, 5, 13, m / 2 - 1, m - 1, m, m + 1};
    }

    for (size_t f = 0; f < fields.size(); ++f) {
      FftDensityEngine fft({.extent = kExtent, .grid = m, .horizon = 20});
      ObjectId id = 0;
      for (const Vec2& p : fields[f]) {
        fft.Apply({0, id++, std::nullopt, MotionState{p, {0.0, 0.0}, 0}});
      }
      const std::vector<int64_t> counts =
          RasterizeCounts(fft.raster(), fields[f]);
      for (const int h : widths) {
        const std::vector<int64_t> sums = fft.BlockSums(0, h);
        ASSERT_EQ(sums.size(), counts.size());
        for (int row = 0; row < m; ++row) {
          for (int col = 0; col < m; ++col) {
            ASSERT_EQ(sums[static_cast<size_t>(row) * m + col],
                      NaiveBlockSum(counts, m, col, row, h))
                << "m=" << m << " field=" << f << " h=" << h
                << " col=" << col << " row=" << row;
          }
        }
      }
    }
  }
}

// The two tests below keep the names they had when the engine's block
// sums came from a transform; they now pin the SummedAreaTable the
// engine and the histogram filter share, on count images built directly.
TEST(FftTest, SpectralBlockSumsBitIdenticalToDirectConvolution) {
  Rng rng(13);
  for (int m : {8, 16, 33}) {
    std::vector<int64_t> counts(static_cast<size_t>(m) * m);
    for (int64_t& c : counts) {
      c = static_cast<int64_t>(std::floor(rng.Uniform(0.0, 50.0)));
    }
    const SummedAreaTable table(counts, m);
    for (int h : {0, 1, 2, 5, m - 1}) {
      const std::vector<int64_t> sums = table.BlockSums(h);
      ASSERT_EQ(sums.size(), counts.size());
      for (int row = 0; row < m; ++row) {
        for (int col = 0; col < m; ++col) {
          ASSERT_EQ(sums[static_cast<size_t>(row) * m + col],
                    NaiveBlockSum(counts, m, col, row, h))
              << "m=" << m << " h=" << h << " col=" << col << " row=" << row;
        }
      }
    }
  }
}

TEST(FftTest, SpectralBlockSumsExactForSinglePointMass) {
  const int m = 16;
  std::vector<int64_t> counts(m * m, 0);
  counts[5 * m + 9] = 7;
  const int h = 2;
  const auto sums = SummedAreaTable(counts, m).BlockSums(h);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < m; ++c) {
      const bool inside = std::abs(r - 5) <= h && std::abs(c - 9) <= h;
      EXPECT_EQ(sums[r * m + c], inside ? 7 : 0) << "r=" << r << " c=" << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Rasterization binning (closed top/right, open left/bottom).

TEST(FftTest, RasterGridBinsClosedTopRight) {
  const RasterGrid grid(200.0, 40);  // g = 5
  // A coordinate exactly on a cell boundary belongs to the cell *below*.
  EXPECT_EQ(grid.ColOf(5.0), 0);
  EXPECT_EQ(grid.ColOf(5.0 + 1e-9), 1);
  EXPECT_EQ(grid.ColOf(100.0), 19);
  EXPECT_EQ(grid.ColOf(100.0 + 1e-9), 20);
  // Domain edges: x = 0 is clamped into cell 0, x = extent lands in m-1.
  EXPECT_EQ(grid.ColOf(0.0), 0);
  EXPECT_EQ(grid.ColOf(200.0), 39);
}

TEST(FftTest, RasterHalfWidthsCloseWithoutSlackCell) {
  const RasterGrid grid(200.0, 40);  // g = 5
  // l = 20: l/(2g) = 2 exactly -> a = 1, b = 2 (no "+1" slack).
  EXPECT_EQ(grid.ConservativeHalfWidth(20.0), 1);
  EXPECT_EQ(grid.ExpansiveHalfWidth(20.0), 2);
  // l = 22: l/(2g) = 2.2 -> a = 1, b = 3.
  EXPECT_EQ(grid.ConservativeHalfWidth(22.0), 1);
  EXPECT_EQ(grid.ExpansiveHalfWidth(22.0), 3);
  // l below one cell: no accept possible.
  EXPECT_LT(grid.ConservativeHalfWidth(4.0), 0);
}

TEST(FftTest, RasterizeDropsOutOfDomainAndCountsMass) {
  const RasterGrid grid(100.0, 10);
  const std::vector<Vec2> positions = {
      {5.0, 5.0},   {5.0, 5.0},    {100.0, 100.0}, {0.0, 0.0},
      {-1.0, 50.0}, {50.0, 101.0}, {30.0, 30.0},
  };
  const std::vector<int64_t> counts = RasterizeCounts(grid, positions);
  int64_t mass = 0;
  for (const int64_t c : counts) mass += c;
  EXPECT_EQ(mass, 5);  // the two out-of-domain points are dropped
  EXPECT_EQ(counts[0 * 10 + 0], 3);  // (5,5) x2 and the clamped (0,0)
  EXPECT_EQ(counts[9 * 10 + 9], 1);  // (100,100) in the top cell
  EXPECT_EQ(counts[2 * 10 + 2], 1);  // (30,30) on the (20,30] boundary
}

// ---------------------------------------------------------------------------
// Engine sandwich vs. exact FR across 200 seeded scenarios, with
// shrink-on-failure.

struct Scenario {
  uint64_t seed = 0;
  int objects = 0;
  bool clustered = false;
  int clusters = 1;
  double rho = 0.0;
  double l = 20.0;
  Tick q_t = 0;
};

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  Scenario s;
  s.seed = seed;
  s.objects = static_cast<int>(rng.UniformInt(40, 250));
  s.clustered = rng.NextDouble() < 0.5;
  s.clusters = static_cast<int>(rng.UniformInt(1, 4));
  s.l = rng.Uniform(12.0, 30.0);
  s.rho = rng.Uniform(0.5, 8.0) * s.objects / (kExtent * kExtent);
  s.q_t = static_cast<Tick>(rng.UniformInt(0, 5));
  return s;
}

std::vector<UpdateEvent> ScenarioWorkload(const Scenario& s, int objects) {
  return s.clustered
             ? MakeClusteredInserts(objects, s.clusters, kExtent, 8.0, 0.3,
                                    s.seed)
             : MakeUniformInserts(objects, kExtent, 1.5, s.seed);
}

// One scenario at one size; false (with a reason) when the sandwich
// breaks.
bool RunSandwichScenario(const Scenario& s, int objects, std::string* why) {
  FrEngine fr({.extent = kExtent,
               .histogram_side = 16,
               .horizon = 20,
               .buffer_pages = 64});
  FftDensityEngine fft({.extent = kExtent, .grid = 64, .horizon = 20});
  for (const UpdateEvent& e : ScenarioWorkload(s, objects)) {
    fr.Apply(e);
    fft.Apply(e);
  }

  const Region exact = fr.Query(s.q_t, s.rho, s.l).region;
  const FftDensityEngine::QueryResult got = fft.Query(s.q_t, s.rho, s.l);

  const double below = RegionDifference(got.region, exact).Area();
  if (below > 1e-6) {
    *why = "accept region escapes exact FR by area " + std::to_string(below);
    return false;
  }
  const double above = RegionDifference(exact, got.maybe_region).Area();
  if (above > 1e-6) {
    *why = "exact FR escapes maybe region by area " + std::to_string(above);
    return false;
  }
  if (got.maybe_region.Area() < got.region.Area() - 1e-9) {
    *why = "maybe region smaller than accept region";
    return false;
  }
  if (got.accepted_cells + got.rejected_cells + got.candidate_cells !=
      64LL * 64LL) {
    *why = "cell classes do not partition the grid";
    return false;
  }
  return true;
}

void ShrinkAndFail(const Scenario& s, const std::string& first_why) {
  int failing = s.objects;
  std::string why = first_why;
  while (failing > 1) {
    const int half = failing / 2;
    std::string half_why;
    if (RunSandwichScenario(s, half, &half_why)) break;
    failing = half;
    why = half_why;
  }
  ADD_FAILURE() << "seed=" << s.seed << " objects=" << failing
                << " (shrunk from " << s.objects << ") rho=" << s.rho
                << " l=" << s.l << " q_t=" << s.q_t
                << (s.clustered ? " clustered" : " uniform") << ": " << why;
}

TEST(FftTest, SandwichesExactFrAcross200Seeds) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario s = MakeScenario(seed);
    std::string why;
    if (!RunSandwichScenario(s, s.objects, &why)) ShrinkAndFail(s, why);
  }
}

// The sandwich pointwise, against the brute-force oracle: the area checks
// above cannot see one misclassified cell edge, so probe every raster cell
// where it bins — (lo, hi] per axis — at its center, its closed top-right
// corner, and one ulp inside each corner. A cell whose center the accept
// region holds must be dense at every probe; a cell whose center lies
// outside the maybe region must be sparse at every probe. Dense means at
// least MinObjectsForDensity(rho, l) objects in the oracle's l-square:
// the threshold exact FR and the engine share.
TEST(FftTest, SandwichHoldsAtEveryProbeOfEveryCell) {
  constexpr int kGrid = 64;
  int64_t accepts = 0, rejects = 0;  // cells probed, over all seeds
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Scenario s = MakeScenario(seed);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " l=" << s.l);
    FftDensityEngine fft({.extent = kExtent, .grid = kGrid, .horizon = 20});
    Oracle oracle(kExtent);
    for (const UpdateEvent& e : ScenarioWorkload(s, s.objects)) {
      fft.Apply(e);
      oracle.Apply(e);
    }
    const FftDensityEngine::QueryResult got = fft.Query(s.q_t, s.rho, s.l);
    const int64_t threshold = MinObjectsForDensity(s.rho, s.l);
    // Oracle::CountInSquare, with the positions materialized once.
    const std::vector<Vec2> positions = oracle.InDomainPositions(s.q_t);
    const auto count_at = [&](Vec2 c) {
      const Rect square = Rect::CenteredSquare(c, s.l);
      int64_t n = 0;
      for (const Vec2& p : positions) n += square.ContainsLSquare(p);
      return n;
    };
    const RasterGrid& raster = fft.raster();
    const double g = raster.cell_edge();
    for (int row = 0; row < kGrid; ++row) {
      for (int col = 0; col < kGrid; ++col) {
        const double x_lo = col * g, x_hi = (col + 1) * g;
        const double y_lo = row * g, y_hi = (row + 1) * g;
        const Vec2 center{(x_lo + x_hi) / 2, (y_lo + y_hi) / 2};
        const bool accept = got.region.Contains(center);
        const bool reject = !got.maybe_region.Contains(center);
        if (!accept && !reject) continue;
        std::vector<Vec2> probes = {center};
        for (const double x : {std::nextafter(x_lo, x_hi),
                               std::nextafter(x_hi, x_lo), x_hi}) {
          for (const double y : {std::nextafter(y_lo, y_hi),
                                 std::nextafter(y_hi, y_lo), y_hi}) {
            probes.push_back({x, y});
          }
        }
        for (const Vec2 p : probes) {
          ASSERT_EQ(raster.ColOf(p.x), col) << p.x;
          ASSERT_EQ(raster.RowOf(p.y), row) << p.y;
          const bool dense = count_at(p) >= threshold;
          ASSERT_EQ(dense, accept)
              << (accept ? "accepted" : "rejected") << " cell (" << col
              << ", " << row << ") at (" << p.x << ", " << p.y << ")";
        }
        ++(accept ? accepts : rejects);
      }
    }
  }
  EXPECT_GT(accepts, 0);
  EXPECT_GT(rejects, 0);
}

// ---------------------------------------------------------------------------
// Engine mechanics: caching, batch amortization, cancellation, horizon.

std::vector<UpdateEvent> SmallWorkload() {
  return MakeClusteredInserts(120, 2, kExtent, 8.0, 0.3, /*seed=*/5);
}

TEST(FftTest, FieldCacheAmortizesQueriesOnOneTick) {
  FftDensityEngine fft({.extent = kExtent, .grid = 64, .horizon = 20});
  for (const UpdateEvent& e : SmallWorkload()) fft.Apply(e);

  Counter& built =
      MetricsRegistry::Global().GetCounter("pdr.fft.fields_built");
  const int64_t built_before = built.value();

  std::vector<FftDensityEngine::QueryResult> results;
  for (int i = 1; i <= 8; ++i) {
    results.push_back(fft.Query(3, i * 10.0 / (kExtent * kExtent), 20.0 + i));
  }
  EXPECT_FALSE(results.front().field_cached);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].field_cached) << "i=" << i;
    EXPECT_EQ(results[i].field_ms, 0.0) << "i=" << i;
  }
  if (PdrObs::CompiledIn()) {
    EXPECT_EQ(built.value(), built_before + 1);  // one field for all 8
  }

  // A different q_t is a different field.
  EXPECT_FALSE(fft.Query(4, 10.0 / (kExtent * kExtent), 21.0).field_cached);
  if (PdrObs::CompiledIn()) {
    EXPECT_EQ(built.value(), built_before + 2);
  }
}

TEST(FftTest, ApplyInvalidatesCachedFields) {
  FftDensityEngine fft({.extent = kExtent, .grid = 32, .horizon = 20});
  for (const UpdateEvent& e : SmallWorkload()) fft.Apply(e);
  const int64_t mass_before = fft.FieldMass(0);
  EXPECT_EQ(mass_before, 120);

  // A new insert must invalidate the cached field, not serve stale mass.
  fft.Apply({0, 9999, std::nullopt, MotionState{{50.0, 50.0}, {0, 0}, 0}});
  EXPECT_EQ(fft.FieldMass(0), mass_before + 1);
}

TEST(FftTest, AdvanceToPrunesFieldsBehindTheClock) {
  FftDensityEngine fft({.extent = kExtent, .grid = 32, .horizon = 20});
  for (const UpdateEvent& e : SmallWorkload()) fft.Apply(e);
  Counter& built =
      MetricsRegistry::Global().GetCounter("pdr.fft.fields_built");
  fft.Query(0, 0.003, 20.0);
  fft.Query(5, 0.003, 20.0);
  const int64_t built_before = built.value();
  fft.AdvanceTo(5);
  // Tick 5's field survives the advance; tick 0's is gone (and can no
  // longer be queried anyway).
  EXPECT_TRUE(fft.Query(5, 0.004, 22.0).field_cached);
  EXPECT_EQ(built.value(), built_before);
}

TEST(FftTest, CancellationAtWorkBoundariesLeavesNoPartialState) {
  FftDensityEngine fft({.extent = kExtent, .grid = 64, .horizon = 20});
  for (const UpdateEvent& e : SmallWorkload()) fft.Apply(e);

  CancelToken token;
  token.Cancel();
  QueryControl ctl;
  ctl.token = &token;
  EXPECT_THROW(fft.Query(0, 0.003, 20.0, ctl), CancelledError);

  QueryControl expired;
  expired.deadline = Deadline::After(0.0);
  EXPECT_THROW(fft.Query(0, 0.003, 20.0, expired), CancelledError);

  // The cancelled builds left no partial cache entry: the next uncontrolled
  // query builds the field from scratch and answers normally.
  Counter& built =
      MetricsRegistry::Global().GetCounter("pdr.fft.fields_built");
  const int64_t built_before = built.value();
  const auto ok = fft.Query(0, 0.003, 20.0);
  EXPECT_FALSE(ok.field_cached);
  if (PdrObs::CompiledIn()) {
    EXPECT_EQ(built.value(), built_before + 1);
  }
}

TEST(FftTest, GenerousControlIsBitIdenticalToNoControl) {
  FftDensityEngine a({.extent = kExtent, .grid = 64, .horizon = 20});
  FftDensityEngine b({.extent = kExtent, .grid = 64, .horizon = 20});
  for (const UpdateEvent& e : SmallWorkload()) {
    a.Apply(e);
    b.Apply(e);
  }
  QueryControl generous;
  generous.deadline = Deadline::After(1e9);
  const auto plain = a.Query(2, 0.004, 24.0);
  const auto controlled = b.Query(2, 0.004, 24.0, generous);
  EXPECT_EQ(plain.accepted_cells, controlled.accepted_cells);
  EXPECT_EQ(plain.rejected_cells, controlled.rejected_cells);
  EXPECT_EQ(plain.candidate_cells, controlled.candidate_cells);
  EXPECT_EQ(RegionDifference(plain.region, controlled.region).Area(), 0.0);
  EXPECT_EQ(RegionDifference(controlled.region, plain.region).Area(), 0.0);
}

TEST(FftTest, QueryOutsideHorizonThrowsHorizonError) {
  FftDensityEngine fft({.extent = kExtent, .grid = 32, .horizon = 20});
  for (const UpdateEvent& e : SmallWorkload()) fft.Apply(e);
  fft.AdvanceTo(5);
  EXPECT_NO_THROW(fft.Query(5, 0.003, 20.0));
  EXPECT_NO_THROW(fft.Query(25, 0.003, 20.0));
  EXPECT_THROW(fft.Query(4, 0.003, 20.0), HorizonError);
  EXPECT_THROW(fft.Query(26, 0.003, 20.0), HorizonError);
}

TEST(FftTest, PredictedMotionMovesTheField) {
  FftDensityEngine fft({.extent = kExtent, .grid = 40, .horizon = 20});
  // One object moving right at 10 per tick from x = 20.
  fft.Apply({0, 1, std::nullopt, MotionState{{20.0, 100.0}, {10.0, 0.0}, 0}});
  const RasterGrid& grid = fft.raster();  // g = 5
  const auto at0 = fft.BlockSums(0, 0);
  const auto at4 = fft.BlockSums(4, 0);
  const int row = grid.RowOf(100.0);
  EXPECT_EQ(at0[row * 40 + grid.ColOf(20.0)], 1);
  EXPECT_EQ(at4[row * 40 + grid.ColOf(20.0)], 0);
  EXPECT_EQ(at4[row * 40 + grid.ColOf(60.0)], 1);
}

}  // namespace
}  // namespace pdr
