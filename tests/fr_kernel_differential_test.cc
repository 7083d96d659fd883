// FR's refinement kernel and the region algebra against a reference
// implementation.
//
// SweepCell keeps the band on a per-cell Y boundary table (a count delta
// per boundary, occupancy bits, a word scan per Y-sweep); the region
// algebra keeps its active intervals in sorted vectors, and the boolean
// operations stitch each slab's result directly. The reference below is
// the straightforward form of the same algorithms: an ordered multiset for
// the band, the band copied and three arrays sorted for every Y-sweep,
// counts by binary search, a map of active intervals, and boolean
// operations that emit one rect per slab interval and then run Coalesced()
// over them. The two must agree bit for bit — every rect (memcmp) and
// every SweepStats counter — over cells built to collide (coincident
// points, shared coordinates, points on the cell's and on the l/2-expanded
// window's edges, one object's entry on another's exit, objects wholly
// above or below the cell), crowded cells at l well below the cell,
// degenerate cells, random overlapping rect sets on a continuous range and
// on a lattice, Klee's-measure edge cases, x-edges at extreme values, and
// exact FR answers of a seeded 10k-object model at consecutive ticks,
// queried on 4 threads. The reference stitches with its own bisecting
// stitcher, so the library's merge-walk SlabStitcher is checked too;
// RegionDifferences must return the reference's two differences, and
// every constructive output must be strictly increasing in
// (x_hi, x_lo, y_lo). FoldRepeatedStrips must leave Coalesced() of a
// cell's sweep output unchanged bit for bit.
//
// FR's grouped fetch (one range query per cluster of adjacent candidate
// cells, bucketed by grid cell) is checked the same way against the
// paper's one range query per candidate cell: the same filter, kernel,
// merge and Coalesced(), so rects, counters and EXPLAIN signatures must
// agree bit for bit, on both indexes, serial and on 4 threads, and
// through an MVCC snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pdr/common/random.h"
#include "pdr/common/region.h"
#include "pdr/core/fr_engine.h"
#include "pdr/histogram/filter.h"
#include "pdr/mobility/generator.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/snapshot_query.h"
#include "pdr/obs/explain.h"
#include "pdr/obs/obs.h"
#include "pdr/obs/registry.h"
#include "pdr/parallel/exec_policy.h"
#include "pdr/parallel/thread_pool.h"
#include "pdr/resilience/executor.h"
#include "pdr/sweep/plane_sweep.h"

namespace pdr {
namespace {

using Intervals = std::vector<std::pair<double, double>>;

// --- Reference plane sweep ---------------------------------------------------

std::vector<double> RefEvents(double lo, double hi,
                              const std::vector<double>& candidates) {
  std::vector<double> events;
  events.push_back(lo);
  for (double c : candidates) {
    if (c > lo && c < hi) events.push_back(c);
  }
  events.push_back(hi);
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  return events;
}

Intervals RefSweepY(const std::vector<double>& sorted_ys, double y_b,
                    double y_t, double l, int64_t n_min, SweepStats* stats) {
  std::vector<double> entries, exits, candidates;
  for (double oy : sorted_ys) {
    entries.push_back(oy - l / 2);
    exits.push_back(oy + l / 2);
    candidates.push_back(oy - l / 2);
    candidates.push_back(oy + l / 2);
  }
  std::sort(entries.begin(), entries.end());
  std::sort(exits.begin(), exits.end());
  const std::vector<double> events = RefEvents(y_b, y_t, candidates);
  Intervals dense;
  for (size_t j = 0; j + 1 < events.size(); ++j) {
    ++stats->y_strips;
    const double y = events[j];
    const int64_t count =
        (std::upper_bound(entries.begin(), entries.end(), y) -
         entries.begin()) -
        (std::upper_bound(exits.begin(), exits.end(), y) - exits.begin());
    if (count >= n_min) {
      if (!dense.empty() && dense.back().second == y) {
        dense.back().second = events[j + 1];
      } else {
        dense.emplace_back(y, events[j + 1]);
      }
    }
  }
  return dense;
}

std::vector<Rect> RefSweepCell(const Rect& cell,
                               const std::vector<Vec2>& positions, double l,
                               int64_t n_min, SweepStats* stats) {
  std::vector<Rect> result;
  if (n_min <= 0) {
    result.push_back(cell);
    ++stats->dense_rects;
    return result;
  }
  if (static_cast<int64_t>(positions.size()) < n_min) return result;
  std::vector<std::pair<double, double>> by_entry, by_exit;
  std::vector<double> candidates;
  for (const Vec2& p : positions) {
    by_entry.emplace_back(p.x - l / 2, p.y);
    by_exit.emplace_back(p.x + l / 2, p.y);
    candidates.push_back(p.x - l / 2);
    candidates.push_back(p.x + l / 2);
  }
  std::sort(by_entry.begin(), by_entry.end());
  std::sort(by_exit.begin(), by_exit.end());
  const std::vector<double> events =
      RefEvents(cell.x_lo, cell.x_hi, candidates);
  std::multiset<double> band;
  size_t next_entry = 0, next_exit = 0;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    const double x = events[i];
    ++stats->x_strips;
    while (next_entry < by_entry.size() && by_entry[next_entry].first <= x) {
      band.insert(by_entry[next_entry++].second);
    }
    while (next_exit < by_exit.size() && by_exit[next_exit].first <= x) {
      band.erase(band.find(by_exit[next_exit++].second));
    }
    if (static_cast<int64_t>(band.size()) < n_min) continue;
    ++stats->y_sweeps;
    const std::vector<double> ys(band.begin(), band.end());
    for (const auto& [y_lo, y_hi] :
         RefSweepY(ys, cell.y_lo, cell.y_hi, l, n_min, stats)) {
      result.emplace_back(x, y_lo, events[i + 1], y_hi);
      ++stats->dense_rects;
    }
  }
  return result;
}

// --- Reference region algebra ------------------------------------------------

struct RefXEvent {
  double x;
  bool open;
  double y_lo, y_hi;
};

std::vector<RefXEvent> RefXEvents(const std::vector<Rect>& rects) {
  std::vector<RefXEvent> events;
  for (const Rect& r : rects) {
    if (r.Empty()) continue;
    events.push_back({r.x_lo, true, r.y_lo, r.y_hi});
    events.push_back({r.x_hi, false, r.y_lo, r.y_hi});
  }
  std::sort(events.begin(), events.end(),
            [](const RefXEvent& a, const RefXEvent& b) { return a.x < b.x; });
  return events;
}

class RefActive {
 public:
  void Apply(const std::vector<RefXEvent>& events, double x, size_t* i) {
    for (; *i < events.size() && events[*i].x == x; ++*i) {
      const RefXEvent& e = events[*i];
      const std::pair<double, double> key(e.y_lo, e.y_hi);
      if (e.open) {
        ++counts_[key];
      } else if (--counts_[key] == 0) {
        counts_.erase(key);
      }
    }
  }
  bool Empty() const { return counts_.empty(); }
  Intervals MergedUnion() const {
    Intervals merged;
    for (const auto& [iv, count] : counts_) {
      (void)count;
      if (!merged.empty() && iv.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, iv.second);
      } else {
        merged.push_back(iv);
      }
    }
    return merged;
  }

 private:
  std::map<std::pair<double, double>, int> counts_;
};

double Length(const Intervals& ivs) {
  double len = 0;
  for (const auto& [lo, hi] : ivs) len += hi - lo;
  return len;
}

// The straightforward stitcher: open rects kept in insertion order, each
// matched against the slab's union by bisection, the closed ones emitted
// in that order.
class RefStitcher {
 public:
  void Cut(double x, const Intervals& merged) {
    std::vector<char> continued(merged.size(), 0);
    std::vector<OpenRect> still_open;
    for (const OpenRect& o : open_) {
      const std::pair<double, double> iv(o.y_lo, o.y_hi);
      const auto it = std::lower_bound(merged.begin(), merged.end(), iv);
      const size_t k = static_cast<size_t>(it - merged.begin());
      if (it != merged.end() && *it == iv && !continued[k]) {
        continued[k] = 1;
        still_open.push_back(o);
      } else if (x > o.x_start) {
        out_.Add(Rect(o.x_start, o.y_lo, x, o.y_hi));
      }
    }
    for (size_t k = 0; k < merged.size(); ++k) {
      if (!continued[k]) {
        still_open.push_back({x, merged[k].first, merged[k].second});
      }
    }
    open_ = std::move(still_open);
  }

  Region Take() {
    EXPECT_TRUE(open_.empty());
    return std::move(out_);
  }

 private:
  struct OpenRect {
    double x_start, y_lo, y_hi;
  };
  std::vector<OpenRect> open_;
  Region out_;
};

Region RefCoalesced(const Region& region) {
  const std::vector<RefXEvent> events = RefXEvents(region.rects());
  RefActive active;
  RefStitcher stitcher;
  size_t i = 0;
  while (i < events.size()) {
    const double x = events[i].x;
    active.Apply(events, x, &i);
    stitcher.Cut(x, active.MergedUnion());
  }
  return stitcher.Take();
}

Intervals RefDifference(const Intervals& a, const Intervals& b) {
  Intervals out;
  size_t j = 0;
  for (auto [lo, hi] : a) {
    double cursor = lo;
    while (j < b.size() && b[j].second <= cursor) ++j;
    for (size_t k = j; k < b.size() && b[k].first < hi; ++k) {
      if (b[k].first > cursor) out.emplace_back(cursor, b[k].first);
      cursor = std::max(cursor, b[k].second);
      if (cursor >= hi) break;
    }
    if (cursor < hi) out.emplace_back(cursor, hi);
  }
  return out;
}

Intervals RefIntersection(const Intervals& a, const Intervals& b) {
  Intervals out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

// Walks the merged slabs of `a` and `b`: visit(x_lo, x_hi, A, B) per slab.
template <typename Visit>
void RefSlabs(const Region& a, const Region& b, const Visit& visit) {
  const std::vector<RefXEvent> ea = RefXEvents(a.rects());
  const std::vector<RefXEvent> eb = RefXEvents(b.rects());
  RefActive active_a, active_b;
  size_t i = 0, j = 0;
  double prev_x = 0;
  bool have_prev = false;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (i < ea.size() || j < eb.size()) {
    const double x = std::min(i < ea.size() ? ea[i].x : kInf,
                              j < eb.size() ? eb[j].x : kInf);
    if (have_prev && x > prev_x) {
      visit(prev_x, x, active_a.MergedUnion(), active_b.MergedUnion());
    }
    active_a.Apply(ea, x, &i);
    active_b.Apply(eb, x, &j);
    prev_x = x;
    have_prev = true;
  }
}

template <typename Combine>
Region RefBoolean(const Region& a, const Region& b, const Combine& combine) {
  Region out;
  RefSlabs(a, b,
           [&](double x_lo, double x_hi, const Intervals& ia,
               const Intervals& ib) {
             for (const auto& [lo, hi] : combine(ia, ib)) {
               out.Add(Rect(x_lo, lo, x_hi, hi));
             }
           });
  return RefCoalesced(out);
}

Region RefRegionDifference(const Region& a, const Region& b) {
  if (a.IsEmpty()) return Region();
  if (b.IsEmpty()) return RefCoalesced(a);
  return RefBoolean(a, b, RefDifference);
}

Region RefRegionIntersection(const Region& a, const Region& b) {
  if (a.IsEmpty() || b.IsEmpty()) return Region();
  return RefBoolean(a, b, RefIntersection);
}

double RefUnionArea(const Region& a) {
  double area = 0;
  RefSlabs(a, Region(), [&](double x_lo, double x_hi, const Intervals& ia,
                            const Intervals&) {
    area += Length(ia) * (x_hi - x_lo);
  });
  return area;
}

double RefIntersectionArea(const Region& a, const Region& b) {
  if (a.IsEmpty() || b.IsEmpty()) return 0.0;
  double area = 0;
  RefSlabs(a, b, [&](double x_lo, double x_hi, const Intervals& ia,
                     const Intervals& ib) {
    if (!ia.empty() && !ib.empty()) {
      area += Length(RefIntersection(ia, ib)) * (x_hi - x_lo);
    }
  });
  return area;
}

// --- Comparison helpers ------------------------------------------------------

std::string RectsMismatch(const std::vector<Rect>& got,
                          const std::vector<Rect>& want) {
  if (got.size() != want.size()) {
    return "rect count " + std::to_string(got.size()) + " vs reference " +
           std::to_string(want.size());
  }
  if (!got.empty() &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(Rect)) != 0) {
    return "rects differ bitwise";
  }
  return "";
}

std::string StatsMismatch(const SweepStats& got, const SweepStats& want) {
  if (got.x_strips == want.x_strips && got.y_sweeps == want.y_sweeps &&
      got.y_strips == want.y_strips && got.dense_rects == want.dense_rects) {
    return "";
  }
  return "SweepStats x_strips " + std::to_string(got.x_strips) + "/" +
         std::to_string(want.x_strips) + " y_sweeps " +
         std::to_string(got.y_sweeps) + "/" + std::to_string(want.y_sweeps) +
         " y_strips " + std::to_string(got.y_strips) + "/" +
         std::to_string(want.y_strips) + " dense_rects " +
         std::to_string(got.dense_rects) + "/" +
         std::to_string(want.dense_rects);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Positions around `cell` built to collide: coincident points, shared x or
// y coordinates, points on the cell's edges and on the edges of the
// l/2-expanded window, a margin of points outside the window. On the
// lattice every coordinate is a multiple of 1/4, so event coordinates tie
// across objects as well.
std::vector<Vec2> CollidingPositions(const Rect& cell, double l, int n,
                                     bool lattice, Rng* rng) {
  const Rect window = cell.Expanded(l / 2);
  const double margin = l / 4;
  const auto coord = [&](double lo, double hi) {
    const double v = rng->Uniform(lo - margin, hi + margin);
    return lattice ? std::round(v * 4) / 4 : v;
  };
  const auto any_of = [&](std::initializer_list<double> values) {
    return values.begin()[rng->UniformInt(0, values.size() - 1)];
  };
  std::vector<Vec2> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    Vec2 p{coord(window.x_lo, window.x_hi), coord(window.y_lo, window.y_hi)};
    const auto earlier = [&]() {
      return out[static_cast<size_t>(rng->UniformInt(0, out.size() - 1))];
    };
    switch (rng->UniformInt(0, 9)) {
      case 0:
        if (!out.empty()) p = earlier();
        break;
      case 1:
        if (!out.empty()) p.x = earlier().x;
        break;
      case 2:
        if (!out.empty()) p.y = earlier().y;
        break;
      case 3:
        p.x = any_of({cell.x_lo, cell.x_hi, window.x_lo, window.x_hi});
        break;
      case 4:
        p.y = any_of({cell.y_lo, cell.y_hi, window.y_lo, window.y_hi});
        break;
      default:
        break;
    }
    out.push_back(p);
  }
  return out;
}

// --- Tests -------------------------------------------------------------------

TEST(DifferentialTest, FrSweepKernelMatchesReferenceOnCollidingCells) {
  Rng rng(1405);
  int cases = 0;
  int64_t dense_rects = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const bool lattice = trial % 2 == 1;
    const double w = lattice ? static_cast<double>(rng.UniformInt(1, 16))
                             : rng.Uniform(0.5, 20.0);
    const double x0 = lattice ? static_cast<double>(rng.UniformInt(-8, 8))
                              : rng.Uniform(-50.0, 50.0);
    const double y0 = lattice ? static_cast<double>(rng.UniformInt(-8, 8))
                              : rng.Uniform(-50.0, 50.0);
    // Now and then a degenerate cell: one event on that axis, no strip.
    const Rect cell(x0, y0, trial % 50 == 3 ? x0 : x0 + w,
                    trial % 50 == 4 ? y0 : y0 + w);
    // l both narrower and wider than the cell.
    double l = w * rng.Uniform(0.2, 4.0);
    if (lattice) l = std::max(0.5, std::round(l * 2) / 2);
    int n = static_cast<int>(rng.UniformInt(0, 160));
    if (trial % 500 == 7) n = 2048;
    const int64_t n_min = rng.UniformInt(0, 12);
    const std::vector<Vec2> positions =
        CollidingPositions(cell, l, n, lattice, &rng);

    SweepStats want_stats, got_stats;
    const std::vector<Rect> want =
        RefSweepCell(cell, positions, l, n_min, &want_stats);
    const std::vector<Rect> got =
        SweepCell(cell, positions, l, n_min, &got_stats);
    const std::string where = "trial " + std::to_string(trial) + " n=" +
                              std::to_string(n) + " n_min=" +
                              std::to_string(n_min) + ": ";
    const std::string rects = RectsMismatch(got, want);
    ASSERT_TRUE(rects.empty()) << where << rects;
    const std::string stats = StatsMismatch(got_stats, want_stats);
    ASSERT_TRUE(stats.empty()) << where << stats;

    // The Y-sweep alone over every position's y.
    std::vector<double> ys;
    for (const Vec2& p : positions) ys.push_back(p.y);
    std::sort(ys.begin(), ys.end());
    SweepStats want_y, got_y;
    const Intervals want_seg =
        RefSweepY(ys, cell.y_lo, cell.y_hi, l, n_min, &want_y);
    const Intervals got_seg = SweepY(ys, cell.y_lo, cell.y_hi, l, n_min, &got_y);
    ASSERT_EQ(got_seg.size(), want_seg.size()) << where;
    ASSERT_TRUE(got_seg.empty() ||
                std::memcmp(got_seg.data(), want_seg.data(),
                            got_seg.size() * sizeof(got_seg[0])) == 0)
        << where << "SweepY segments differ bitwise";
    ASSERT_EQ(got_y.y_strips, want_y.y_strips) << where;
    dense_rects += static_cast<int64_t>(want.size());
    ++cases;
  }
  EXPECT_EQ(cases, 2000);
  EXPECT_GT(dense_rects, 10000);  // the comparison is not vacuous
}

TEST(DifferentialTest, FrSweepKernelMatchesReferenceOn4096ObjectCell) {
  Rng rng(4096);
  const Rect cell(100.0, 200.0, 110.0, 210.0);
  for (double l : {2.5, 16.0}) {
    const std::vector<Vec2> positions =
        CollidingPositions(cell, l, 4096, /*lattice=*/l == 2.5, &rng);
    const int64_t n_min = l == 2.5 ? 12 : 400;
    SweepStats want_stats, got_stats;
    const std::vector<Rect> want =
        RefSweepCell(cell, positions, l, n_min, &want_stats);
    const std::vector<Rect> got =
        SweepCell(cell, positions, l, n_min, &got_stats);
    EXPECT_GT(want.size(), 0u) << "l=" << l;
    EXPECT_EQ(RectsMismatch(got, want), "") << "l=" << l;
    EXPECT_EQ(StatsMismatch(got_stats, want_stats), "") << "l=" << l;
  }
}

// SweepCell and SweepY against the reference on one cell: memcmp-equal
// rects and segments, equal SweepStats. Returns the reference's rects.
size_t ExpectKernelMatches(const Rect& cell, const std::vector<Vec2>& positions,
                           double l, int64_t n_min, const std::string& where) {
  SweepStats want_stats, got_stats;
  const std::vector<Rect> want =
      RefSweepCell(cell, positions, l, n_min, &want_stats);
  const std::vector<Rect> got =
      SweepCell(cell, positions, l, n_min, &got_stats);
  EXPECT_EQ(RectsMismatch(got, want), "") << where;
  EXPECT_EQ(StatsMismatch(got_stats, want_stats), "") << where;

  std::vector<double> ys;
  for (const Vec2& p : positions) ys.push_back(p.y);
  std::sort(ys.begin(), ys.end());
  SweepStats want_y, got_y;
  const Intervals want_seg =
      RefSweepY(ys, cell.y_lo, cell.y_hi, l, n_min, &want_y);
  const Intervals got_seg = SweepY(ys, cell.y_lo, cell.y_hi, l, n_min, &got_y);
  EXPECT_TRUE(got_seg.size() == want_seg.size() &&
              (got_seg.empty() ||
               std::memcmp(got_seg.data(), want_seg.data(),
                           got_seg.size() * sizeof(got_seg[0])) == 0))
      << where << "SweepY segments differ";
  EXPECT_EQ(StatsMismatch(got_y, want_y), "") << where << "SweepY";
  return want.size();
}

// l well below the cell, with up to 4096 objects: the band is a thin slice
// of the cell while the boundary table holds every nearby object, so a
// Y-sweep must visit only the band's boundaries to stay cheap — and must
// still produce the reference's rects and counters exactly.
TEST(DifferentialTest, FrSweepKernelMatchesReferenceOnCrowdedSmallLCells) {
  Rng rng(2005);
  const Rect cell(40.0, -30.0, 50.0, -20.0);
  int64_t rects = 0;
  for (double fraction : {0.05, 0.2, 0.5}) {
    const double l = fraction * cell.Width();
    // The reference sorts the whole band per strip, so above l = cell / 20
    // it stops at 2048 objects to keep the lane quick under the
    // sanitizers.
    for (int n : {64, 512, fraction < 0.1 ? 4096 : 2048}) {
      const bool lattice = n == 512;
      const std::vector<Vec2> positions =
          CollidingPositions(cell, l, n, lattice, &rng);
      // Objects per l-square on average; thresholds around it.
      const double mean = n * l * l /
                          (cell.Expanded(l / 2).Width() *
                           cell.Expanded(l / 2).Height());
      std::vector<int64_t> thresholds = {
          1, static_cast<int64_t>(n),
          std::max<int64_t>(2, static_cast<int64_t>(mean * 2 + 1))};
      if (n > 512) thresholds = {thresholds.back()};
      for (int64_t n_min : thresholds) {
        rects += static_cast<int64_t>(ExpectKernelMatches(
            cell, positions, l, n_min,
            "l=" + std::to_string(l) + " n=" + std::to_string(n) +
                " n_min=" + std::to_string(n_min) + ": "));
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(rects, 5000);  // the comparison is not vacuous
}

// Cases built for the boundary table's edges, on a quarter lattice so
// coordinates tie exactly: cells shorter and taller than l and of zero
// height or width; one object's entry on another's exit (oy + l == oy'
// with l a multiple of 1/2, so oy + l/2 and oy' - l/2 are one double);
// coincident ys (several members at one boundary); objects wholly below
// the cell (exit <= y_lo: both indices 0) and wholly above (entry >= y_hi:
// both indices E); n_min 1, 2, 3 and every position.
TEST(DifferentialTest, FrSweepKernelMatchesReferenceOnBoundaryTableEdges) {
  Rng rng(1907);
  int entry_on_exit = 0, coincident = 0, below = 0, above = 0, degenerate = 0;
  int64_t rects = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const double l = 0.5 * static_cast<double>(rng.UniformInt(1, 12));
    const double x0 = 0.25 * static_cast<double>(rng.UniformInt(-40, 40));
    const double y0 = 0.25 * static_cast<double>(rng.UniformInt(-40, 40));
    const double width = 0.25 * static_cast<double>(rng.UniformInt(1, 40));
    // Heights from below l to well above it; every 10th cell degenerate.
    double height = l * std::vector<double>{0.25, 0.5, 1.0, 2.0, 4.0}
                            [static_cast<size_t>(rng.UniformInt(0, 4))];
    const bool zero_height = trial % 10 == 3;
    const bool zero_width = trial % 10 == 7;
    if (zero_height) height = 0;
    const Rect cell(x0, y0, zero_width ? x0 : x0 + width, y0 + height);
    degenerate += zero_height || zero_width;

    const auto quarter = [&](double lo, double hi) {
      return std::round(rng.Uniform(lo, hi) * 4) / 4;
    };
    const int n = static_cast<int>(rng.UniformInt(1, 60));
    std::vector<Vec2> positions;
    for (int i = 0; i < n; ++i) {
      Vec2 p{quarter(cell.x_lo - l, cell.x_hi + l),
             quarter(cell.y_lo - l, cell.y_hi + l)};
      if (!positions.empty()) {
        const Vec2 other = positions[static_cast<size_t>(
            rng.UniformInt(0, positions.size() - 1))];
        switch (rng.UniformInt(0, 5)) {
          case 0:  // entry on another's exit, in y and in x
            p = {other.x + l, other.y + l};
            break;
          case 1:  // same y
            p.y = other.y;
            break;
          case 2:  // wholly below: oy + l/2 <= y_lo
            p.y = cell.y_lo - l / 2 - 0.25 * rng.UniformInt(0, 4);
            break;
          case 3:  // wholly above: oy - l/2 >= y_hi
            p.y = cell.y_hi + l / 2 + 0.25 * rng.UniformInt(0, 4);
            break;
          default:
            break;
        }
      }
      positions.push_back(p);
    }
    std::set<double> entries, exits;
    std::map<double, int> ys;
    for (const Vec2& p : positions) {
      entries.insert(p.y - l / 2);
      exits.insert(p.y + l / 2);
      ++ys[p.y];
      below += p.y + l / 2 <= cell.y_lo;
      above += p.y - l / 2 >= cell.y_hi;
    }
    for (double e : entries) {
      entry_on_exit += e > cell.y_lo && e < cell.y_hi && exits.count(e) > 0;
    }
    for (const auto& [y, count] : ys) coincident += count > 1;

    for (int64_t n_min : {int64_t{1}, int64_t{2}, int64_t{3},
                          static_cast<int64_t>(positions.size())}) {
      rects += static_cast<int64_t>(ExpectKernelMatches(
          cell, positions, l, n_min,
          "trial " + std::to_string(trial) + " n_min=" +
              std::to_string(n_min) + ": "));
    }
    if (HasFailure()) return;
  }
  // Every edge the lanes are for actually occurred.
  EXPECT_GT(entry_on_exit, 100);
  EXPECT_GT(coincident, 100);
  EXPECT_GT(below, 100);
  EXPECT_GT(above, 100);
  EXPECT_EQ(degenerate, 120);
  EXPECT_GT(rects, 10000);
}

// The kernel polls its QueryControl once per X-strip, before that strip's
// Y-sweep: a token cancelled before the call stops SweepCell at the first
// strip, before any rect, counter or event is produced, and SweepY before
// its sweep.
TEST(DifferentialTest, FrSweepKernelHonoursPreCancelledToken) {
  const Rect cell(0, 0, 10, 10);
  std::vector<Vec2> positions;
  for (int i = 0; i < 40; ++i) positions.push_back({5.0 + 0.1 * i, 5.0});
  ASSERT_FALSE(SweepCell(cell, positions, 4.0, 3).empty());
  CancelToken token;
  token.Cancel();
  QueryControl ctl;
  ctl.token = &token;
  Counter& cells = MetricsRegistry::Global().GetCounter("pdr.sweep.cells");
  const int64_t cells_before = cells.value();
  SweepStats stats;
  EXPECT_THROW(SweepCell(cell, positions, 4.0, 3, &stats, &ctl),
               CancelledError);
  EXPECT_EQ(StatsMismatch(stats, SweepStats{}), "");
  EXPECT_EQ(cells.value(), cells_before);
  EXPECT_THROW(SweepY({5.0, 5.0, 5.0}, 0.0, 10.0, 4.0, 3, &stats, &ctl),
               CancelledError);
  EXPECT_EQ(stats.y_strips, 0);
}

// --- Folding repeated strips ------------------------------------------------

// FoldRepeatedStrips on one cell's SweepCell output: Coalesced() of the
// folded rects memcmp-equals Coalesced() of the unfolded ones, every strip
// left (a run of equal x_lo) shares one x_hi, and no two touching adjacent
// strips still carry equal run lists. Returns the rects folded away.
size_t ExpectFoldMatches(const std::vector<Rect>& rects,
                         const std::string& where) {
  std::vector<Rect> folded = rects;
  FoldRepeatedStrips(&folded);
  EXPECT_EQ(RectsMismatch(Region(folded).Coalesced().rects(),
                          Region(rects).Coalesced().rects()),
            "")
      << where << "Coalesced of folded vs unfolded";
  size_t prev = 0, prev_end = 0;
  for (size_t i = 0; i < folded.size();) {
    size_t j = i + 1;
    while (j < folded.size() && folded[j].x_lo == folded[i].x_lo) ++j;
    for (size_t k = i; k < j; ++k) {
      EXPECT_EQ(folded[k].x_hi, folded[i].x_hi) << where << "strip at " << i;
    }
    bool repeats = prev_end > prev && folded[prev].x_hi == folded[i].x_lo &&
                   prev_end - prev == j - i;
    for (size_t k = 0; repeats && k < j - i; ++k) {
      repeats = folded[prev + k].y_lo == folded[i + k].y_lo &&
                folded[prev + k].y_hi == folded[i + k].y_hi;
    }
    EXPECT_FALSE(repeats) << where << "strip at " << i << " still repeats";
    prev = i;
    prev_end = j;
    i = j;
  }
  return rects.size() - folded.size();
}

// Hand-built strips: three touching strips with equal runs fold into one;
// a strip after a gap, a strip whose runs are a prefix of the previous
// strip's, one that extends the previous list, and one with as many runs
// but one moved stay apart; a lone strip and an empty list pass through.
TEST(DifferentialTest, FoldRepeatedStripsFoldsOnlyTouchingEqualStrips) {
  std::vector<Rect> rects = {
      {0, 0, 1, 2}, {0, 3, 1, 4},  // [0, 1): (0, 2) (3, 4)
      {1, 0, 2, 2}, {1, 3, 2, 4},  // [1, 2): the same runs, touching
      {2, 0, 3, 2}, {2, 3, 3, 4},  // [2, 3): again
      {4, 0, 5, 2}, {4, 3, 5, 4},  // [4, 5): the same runs after a gap
      {5, 0, 6, 2},                // [5, 6): a prefix of them
      {6, 0, 7, 2}, {6, 3, 7, 4},  // [6, 7): extends the prefix
      {7, 0, 8, 2}, {7, 3, 8, 5},  // [7, 8): as many runs, one moved
  };
  const std::vector<Rect> want = {
      {0, 0, 3, 2}, {0, 3, 3, 4}, {4, 0, 5, 2}, {4, 3, 5, 4}, {5, 0, 6, 2},
      {6, 0, 7, 2}, {6, 3, 7, 4}, {7, 0, 8, 2}, {7, 3, 8, 5},
  };
  EXPECT_EQ(ExpectFoldMatches(rects, "hand-built: "), 4u);
  FoldRepeatedStrips(&rects);
  EXPECT_EQ(RectsMismatch(rects, want), "");

  std::vector<Rect> lone = {{0, 0, 1, 2}, {0, 3, 1, 4}};
  FoldRepeatedStrips(&lone);
  EXPECT_EQ(RectsMismatch(lone, {{0, 0, 1, 2}, {0, 3, 1, 4}}), "");
  std::vector<Rect> none;
  FoldRepeatedStrips(&none);
  EXPECT_TRUE(none.empty());
}

// SweepCell's own output on the kernel lanes' cells — colliding, crowded
// small-l, boundary-table lattice — and on every candidate cell of a
// seeded 10k-object trip model, as FR refines them. n_min <= 0 returns the
// whole cell, which passes through unchanged.
TEST(DifferentialTest, FoldRepeatedStripsKeepsCoalescedOnSweptCells) {
  Rng rng(2020);
  size_t rects = 0, folded = 0;
  const auto check = [&](const Rect& cell, const std::vector<Vec2>& positions,
                         double l, int64_t n_min, const std::string& where) {
    const std::vector<Rect> out = SweepCell(cell, positions, l, n_min);
    rects += out.size();
    folded += ExpectFoldMatches(out, where);
  };
  for (int trial = 0; trial < 600; ++trial) {  // colliding
    const bool lattice = trial % 2 == 1;
    const double w = lattice ? static_cast<double>(rng.UniformInt(1, 16))
                             : rng.Uniform(0.5, 20.0);
    const Rect cell(0, 0, w, w);
    double l = w * rng.Uniform(0.2, 4.0);
    if (lattice) l = std::max(0.5, std::round(l * 2) / 2);
    const std::vector<Vec2> positions = CollidingPositions(
        cell, l, static_cast<int>(rng.UniformInt(0, 160)), lattice, &rng);
    check(cell, positions, l, rng.UniformInt(1, 12),
          "colliding trial " + std::to_string(trial) + ": ");
  }
  for (double fraction : {0.05, 0.2, 0.5}) {  // crowded, small l
    const Rect cell(40.0, -30.0, 50.0, -20.0);
    const double l = fraction * cell.Width();
    const std::vector<Vec2> positions =
        CollidingPositions(cell, l, 1024, /*lattice=*/fraction == 0.2, &rng);
    for (int64_t n_min : {1, 2, 4}) {
      check(cell, positions, l, n_min,
            "crowded l=" + std::to_string(l) + ": ");
    }
  }
  for (int trial = 0; trial < 300; ++trial) {  // boundary-table lattice
    const double l = 0.5 * static_cast<double>(rng.UniformInt(1, 12));
    const double side = 0.25 * static_cast<double>(rng.UniformInt(1, 40));
    const Rect cell(0, 0, side, side);
    std::vector<Vec2> positions;
    for (int i = 0; i < 60; ++i) {
      positions.push_back(
          {std::round(rng.Uniform(-l, side + l) * 4) / 4,
           std::round(rng.Uniform(-l, side + l) * 4) / 4});
      if (i > 0 && rng.Bernoulli(0.3)) {
        positions.push_back({positions[i - 1].x + l, positions[i - 1].y + l});
      }
    }
    check(cell, positions, l, rng.UniformInt(1, 3),
          "lattice trial " + std::to_string(trial) + ": ");
  }

  // The trip model FR refines in the standing exact workload.
  constexpr int kObjects = 10000;
  constexpr double kExtent = 1000.0;
  constexpr double kL = 30.0;
  WorkloadConfig config;
  config.WithExtent(kExtent);
  config.num_objects = kObjects;
  config.seed = 20;
  TripSimulator sim(config);
  FrEngine fr({.extent = kExtent, .histogram_side = 100, .horizon = 120});
  for (const UpdateEvent& e : sim.Bootstrap()) fr.Apply(e);
  for (Tick t = 1; t <= 10; ++t) {
    fr.AdvanceTo(t);
    for (const UpdateEvent& e : sim.Advance(t)) fr.Apply(e);
  }
  const double rho = 3.0 * kObjects / (kExtent * kExtent);
  const Tick q_t = 30;
  const Grid& grid = fr.histogram().grid();
  const FilterResult filter = FilterCells(fr.histogram(), q_t, rho, kL);
  size_t trip_cells = 0, trip_folded = 0;
  for (int row = 0; row < grid.cells_per_side(); ++row) {
    for (int col = 0; col < grid.cells_per_side(); ++col) {
      if (filter.At(col, row) != CellClass::kCandidate) continue;
      const Rect cell = grid.CellRect(col, row);
      std::vector<Vec2> positions;
      for (const auto& [id, state] :
           fr.index().RangeQuery(cell.Expanded(kL / 2), q_t)) {
        (void)id;
        const Vec2 p = state.PositionAt(q_t);
        if (grid.InDomain(p)) positions.push_back(p);
      }
      const size_t before = folded;
      check(cell, positions, kL, MinObjectsForDensity(rho, kL),
            "trip cell " + std::to_string(col) + "," + std::to_string(row) +
                ": ");
      trip_folded += folded - before;
      ++trip_cells;
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(trip_cells, 1000u);
  EXPECT_GT(trip_folded, 1000u);  // the trip model's strips do repeat
  EXPECT_GT(rects, 20000u);
  EXPECT_GT(folded, rects / 10);

  // n_min <= 0: the whole cell, one rect, unchanged.
  const Rect cell(1, 2, 3, 4);
  std::vector<Rect> whole = SweepCell(cell, {}, 1.0, 0);
  FoldRepeatedStrips(&whole);
  EXPECT_EQ(RectsMismatch(whole, {cell}), "");
}

// Random rect sets: overlapping, nested, duplicated and edge-sharing.
Region RandomRects(int n, bool lattice, Rng* rng) {
  Region out;
  for (int i = 0; i < n; ++i) {
    double x = rng->Uniform(0, 100), y = rng->Uniform(0, 100);
    double w = rng->Uniform(0.5, 30), h = rng->Uniform(0.5, 30);
    if (lattice) {
      x = std::floor(x / 5) * 5;
      y = std::floor(y / 5) * 5;
      w = std::ceil(w / 5) * 5;
      h = std::ceil(h / 5) * 5;
    }
    out.Add(Rect(x, y, x + w, y + h));
    if (!out.IsEmpty() && rng->Bernoulli(0.1)) out.Add(out.rects().back());
  }
  return out;
}

// The order every constructive operation emits: strictly increasing in
// (x_hi, x_lo, y_lo).
std::string OrderViolation(const std::vector<Rect>& rects) {
  for (size_t i = 1; i < rects.size(); ++i) {
    const Rect& p = rects[i - 1];
    const Rect& r = rects[i];
    if (!(std::tie(p.x_hi, p.x_lo, p.y_lo) < std::tie(r.x_hi, r.x_lo, r.y_lo))) {
      return "rect " + std::to_string(i) + " out of (x_hi, x_lo, y_lo) order";
    }
  }
  return "";
}

// Coalesced, both differences (alone and from one RegionDifferences call,
// in both argument orders) and the intersection against the reference,
// memcmp-equal, each in emission order.
void ExpectConstructiveOpsMatch(const Region& a, const Region& b,
                                const std::string& where) {
  const Region a_minus_b = RefRegionDifference(a, b);
  const Region b_minus_a = RefRegionDifference(b, a);
  const auto [ab_first, ab_second] = RegionDifferences(a, b);
  const auto [ba_first, ba_second] = RegionDifferences(b, a);
  const struct {
    const char* name;
    Region got;
    Region want;
  } ops[] = {
      {"Coalesced", a.Coalesced(), RefCoalesced(a)},
      {"a \\ b", RegionDifference(a, b), a_minus_b},
      {"b \\ a", RegionDifference(b, a), b_minus_a},
      {"RegionDifferences(a, b).first", ab_first, a_minus_b},
      {"RegionDifferences(a, b).second", ab_second, b_minus_a},
      {"RegionDifferences(b, a).first", ba_first, b_minus_a},
      {"RegionDifferences(b, a).second", ba_second, a_minus_b},
      {"a ∩ b", RegionIntersection(a, b), RefRegionIntersection(a, b)},
  };
  for (const auto& op : ops) {
    EXPECT_EQ(RectsMismatch(op.got.rects(), op.want.rects()), "")
        << where << op.name;
    EXPECT_EQ(OrderViolation(op.got.rects()), "") << where << op.name;
  }
}

void ExpectRegionOpsMatch(const Region& a, const Region& b,
                          const std::string& where) {
  ExpectConstructiveOpsMatch(a, b, where);
  EXPECT_TRUE(SameBits(a.Area(), RefUnionArea(a))) << where << "Area";
  EXPECT_TRUE(SameBits(IntersectionArea(a, b), RefIntersectionArea(a, b)))
      << where << "IntersectionArea";
}

TEST(DifferentialTest, RegionOpsMatchReferenceOnRandomRectSets) {
  Rng rng(77);
  int64_t rects = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const bool lattice = trial % 2 == 0;
    const Region a =
        RandomRects(static_cast<int>(rng.UniformInt(0, 120)), lattice, &rng);
    const Region b =
        RandomRects(static_cast<int>(rng.UniformInt(0, 120)), lattice, &rng);
    rects += static_cast<int64_t>(RefRegionDifference(a, b).size());
    ExpectRegionOpsMatch(a, b, "trial " + std::to_string(trial) + ": ");
    if (HasFailure()) return;
  }
  EXPECT_GT(rects, 10000);
}

// Klee's-measure edge cases: an empty region on either side or both,
// equal regions, nesting both ways, disjoint rects, rects touching along
// x and along y, overlaps, and zero-width or zero-height rects, which
// Region drops. The union areas are the known ones.
TEST(DifferentialTest, RegionOpsMatchReferenceOnEdgeCases) {
  const Region none;
  const Region box({Rect(5, 5, 10, 15)});
  const Region inner({Rect(6, 6, 8, 9)});
  const Region disjoint({Rect(5, 5, 10, 10), Rect(15, 10, 25, 15)});
  const Region far({Rect(15, 10, 25, 15)});
  const Region left({Rect(5, 5, 10, 10)});
  const Region right({Rect(10, 5, 15, 10)});
  const Region above({Rect(5, 10, 10, 15)});
  const Region neighbors({Rect(5, 5, 10, 10), Rect(10, 5, 15, 10)});
  const Region overlapping({Rect(2, -1, 3, 6), Rect(0, 0, 5, 5),
                            Rect(4, 4, 6, 6), Rect(10, 10, 12, 10.5)});
  const Region on_x({Rect(5, 0, 10, 5), Rect(5, 10, 10, 15),
                     Rect(6, 4, 8, 11)});
  const Region flat({Rect(0, 0, 5, 5), Rect(0, 1, 0, 2), Rect(7, 7, 7, 7),
                     Rect(1, 3, 4, 3)});
  EXPECT_EQ(flat.size(), 1u);
  EXPECT_EQ(none.Area(), 0.0);
  EXPECT_EQ(box.Area(), 50.0);
  EXPECT_EQ(Region({Rect(5, 5, 10, 15), Rect(6, 6, 8, 9)}).Area(), 50.0);
  EXPECT_EQ(disjoint.Area(), 75.0);
  EXPECT_EQ(neighbors.Area(), 50.0);
  EXPECT_EQ(overlapping.Area(), 31.0);
  EXPECT_EQ(on_x.Area(), 60.0);
  EXPECT_EQ(flat.Area(), 25.0);
  EXPECT_EQ(RectsMismatch(neighbors.Coalesced().rects(), {Rect(5, 5, 15, 10)}),
            "");

  const struct {
    const char* name;
    const Region& a;
    const Region& b;
  } cases[] = {
      {"empty a", none, box},
      {"empty b", box, none},
      {"both empty", none, none},
      {"a == b", box, box},
      {"b nested in a", box, inner},
      {"a nested in b", inner, box},
      {"disjoint", box, far},
      {"touching along x", left, right},
      {"touching along y", left, above},
      {"neighbors vs one", neighbors, left},
      {"overlapping", overlapping, on_x},
      {"zero width and height", flat, box},
      {"self-overlapping a", overlapping, overlapping},
  };
  for (const auto& c : cases) {
    ExpectRegionOpsMatch(c.a, c.b, std::string(c.name) + ": ");
    ExpectRegionOpsMatch(c.b, c.a, std::string(c.name) + " (swapped): ");
  }
  const auto [gone, none_left] = RegionDifferences(box, box);
  EXPECT_TRUE(gone.IsEmpty());
  EXPECT_TRUE(none_left.IsEmpty());
  const auto [from_none, all] = RegionDifferences(none, overlapping);
  EXPECT_TRUE(from_none.IsEmpty());
  EXPECT_EQ(RectsMismatch(all.rects(), overlapping.Coalesced().rects()), "");
}

// x-edges at extreme values must give the reference's answers too: only
// two distinct values, a lattice, ranges near the largest finite double
// (and one whose width overflows to infinity), ranges a few ulps wide,
// and denormal ranges. ±0.0 edges compare equal, and the sign a slab
// takes from either sort is unspecified, so that case compares values.
TEST(DifferentialTest, RegionOpsMatchReferenceOnExtremeXEdges) {
  Rng rng(2121);
  // n rects with x edges drawn by x() and y in [0, 100).
  const auto region = [&](int n, const auto& x) {
    Region out;
    for (int i = 0; i < n; ++i) {
      const double x0 = x(), x1 = x();
      const double y = rng.Uniform(0, 90);
      out.Add(Rect(std::min(x0, x1), y, std::max(x0, x1),
                   y + rng.Uniform(1, 10)));
    }
    return out;
  };
  const auto scaled = [&](double lo, double hi) {
    return [&, lo, hi] { return lo + (hi - lo) * rng.Uniform(0, 1); };
  };
  for (int trial = 0; trial < 20; ++trial) {
    const std::string where = "trial " + std::to_string(trial) + ": ";
    // Two x values: every rect that is not empty is [0, 1) in x.
    const auto two = [&] { return static_cast<double>(rng.UniformInt(0, 1)); };
    ExpectRegionOpsMatch(region(100, two), region(100, two), where + "two x: ");
    const auto lattice = [&] { return 0.5 * rng.UniformInt(0, 40); };
    ExpectRegionOpsMatch(region(200, lattice), region(150, lattice),
                         where + "lattice: ");
    // Huge ranges: finite width, then one that overflows to infinity.
    ExpectRegionOpsMatch(region(40, scaled(-1e300, 1e300)),
                         region(40, scaled(-1e300, 1e300)),
                         where + "range 2e300: ");
    const auto extreme = [&] {
      return std::numeric_limits<double>::max() * rng.Uniform(-1, 1);
    };
    ExpectConstructiveOpsMatch(region(40, extreme), region(40, extreme),
                               where + "range overflows: ");
    // Tiny ranges: a few ulps above 1, and denormal widths.
    const auto ulps = [&] {
      return 1.0 + std::numeric_limits<double>::epsilon() * rng.UniformInt(0, 6);
    };
    ExpectRegionOpsMatch(region(40, ulps), region(40, ulps),
                         where + "range of ulps: ");
    for (double width : {1e-300, 1e-310}) {
      ExpectRegionOpsMatch(region(40, scaled(0, width)),
                           region(40, scaled(0, width)),
                           where + (width > 1e-305 ? "range 1e-300: "
                                                   : "range 1e-310: "));
    }
    if (HasFailure()) return;
  }

  // ±0.0: the same point sets, compared by value.
  const auto signed_zero = [&] {
    const double v[] = {-0.0, 0.0, -1.0, 1.0, rng.Uniform(-1, 1)};
    return v[rng.UniformInt(0, 4)];
  };
  for (int trial = 0; trial < 50; ++trial) {
    const Region a = region(100, signed_zero), b = region(100, signed_zero);
    const auto same_values = [&](const Region& got, const Region& want) {
      return got.rects() == want.rects();
    };
    const auto [ab, ba] = RegionDifferences(a, b);
    EXPECT_TRUE(same_values(a.Coalesced(), RefCoalesced(a))) << trial;
    EXPECT_TRUE(same_values(ab, RefRegionDifference(a, b))) << trial;
    EXPECT_TRUE(same_values(ba, RefRegionDifference(b, a))) << trial;
    EXPECT_TRUE(same_values(RegionIntersection(a, b),
                            RefRegionIntersection(a, b)))
        << trial;
    EXPECT_EQ(OrderViolation(ab.rects()), "") << trial;
    EXPECT_EQ(a.Area(), RefUnionArea(a)) << trial;
  }
}

// The reference assembly of one FR answer: the engine's own filter and
// range queries, the reference sweep per candidate cell, the row-major
// merge with the accepted cells, the reference Coalesced().
Region RefFrAnswer(FrEngine& fr, Tick q_t, double rho, double l,
                   SweepStats* stats) {
  const Grid& grid = fr.histogram().grid();
  const FilterResult filter = FilterCells(fr.histogram(), q_t, rho, l);
  const int64_t n_min = MinObjectsForDensity(rho, l);
  Region region;
  for (int row = 0; row < grid.cells_per_side(); ++row) {
    for (int col = 0; col < grid.cells_per_side(); ++col) {
      const Rect cell = grid.CellRect(col, row);
      const CellClass cls = filter.At(col, row);
      if (cls == CellClass::kAccept) region.Add(cell);
      if (cls != CellClass::kCandidate) continue;
      std::vector<Vec2> positions;
      for (const auto& [id, state] :
           fr.index().RangeQuery(cell.Expanded(l / 2), q_t)) {
        (void)id;
        const Vec2 p = state.PositionAt(q_t);
        if (grid.InDomain(p)) positions.push_back(p);
      }
      for (const Rect& r : RefSweepCell(cell, positions, l, n_min, stats)) {
        region.Add(r);
      }
    }
  }
  return RefCoalesced(region);
}

TEST(DifferentialTest, FrQueryAndDeltasMatchReferenceOn10kObjectModel) {
  constexpr double kExtent = 1000.0;
  constexpr int kObjects = 10000;
  FrEngine fr({.extent = kExtent, .histogram_side = 100, .horizon = 20});
  fr.SetExecPolicy(ExecPolicy::Parallel(4));
  Rng rng(10000);
  for (UpdateEvent e :
       MakeClusteredInserts(kObjects, 12, kExtent, 40.0, 0.3, 10000)) {
    e.new_state->vel = {rng.Uniform(-1.5, 1.5), rng.Uniform(-1.5, 1.5)};
    fr.Apply(e);
  }
  const double rho = 3.0 * kObjects / (kExtent * kExtent);
  const double l = 30.0;
  Region previous;
  for (Tick q_t = 4; q_t <= 5; ++q_t) {
    const std::string where = "q_t=" + std::to_string(q_t) + ": ";
    SweepStats want_stats;
    const Region want = RefFrAnswer(fr, q_t, rho, l, &want_stats);
    const FrEngine::QueryResult got = fr.Query(q_t, rho, l);
    EXPECT_GT(want.size(), 100u) << where;
    EXPECT_EQ(RectsMismatch(got.region.rects(), want.rects()), "") << where;
    EXPECT_EQ(StatsMismatch(got.sweep, want_stats), "") << where;
    if (!previous.IsEmpty()) {
      // The monitor's delta between consecutive answers, both ways.
      EXPECT_GT(RefRegionDifference(got.region, previous).size(), 0u);
      ExpectRegionOpsMatch(got.region, previous, where);
    }
    previous = got.region;
  }
}

// --- The grouped fetch against per-cell range queries -----------------------

// FR's answer with one range query per candidate cell, as Section 5.3 runs
// it: the filter, SweepCell, the row-major merge with the accepted cells
// and Coalesced() — everything but the fetch is the engine's own code.
struct PerCellAnswer {
  FilterResult filter;
  Region region;
  SweepStats sweep;
  int64_t objects = 0;
};

PerCellAnswer PerCellFrAnswer(
    const Grid& grid, const std::vector<DensityHistogram::Counter>& slice,
    const ObjectIndex& index, Tick q_t, double rho, double l) {
  PerCellAnswer out;
  out.filter = FilterCellsOverSlice(grid, slice, rho, l);
  const int64_t n_min = MinObjectsForDensity(rho, l);
  Region region;
  for (int row = 0; row < grid.cells_per_side(); ++row) {
    for (int col = 0; col < grid.cells_per_side(); ++col) {
      const Rect cell = grid.CellRect(col, row);
      const CellClass cls = out.filter.At(col, row);
      if (cls == CellClass::kAccept) region.Add(cell);
      if (cls != CellClass::kCandidate) continue;
      const auto objects = index.RangeQuery(cell.Expanded(l / 2), q_t);
      out.objects += static_cast<int64_t>(objects.size());
      std::vector<Vec2> positions;
      for (const auto& [id, state] : objects) {
        (void)id;
        const Vec2 p = state.PositionAt(q_t);
        if (grid.InDomain(p)) positions.push_back(p);
      }
      for (const Rect& r : SweepCell(cell, positions, l, n_min, &out.sweep)) {
        region.Add(r);
      }
    }
  }
  out.region = region.Coalesced();
  return out;
}

std::string GroupedFetchMismatch(const FrEngine::QueryResult& got,
                                 const PerCellAnswer& want) {
  std::string why = RectsMismatch(got.region.rects(), want.region.rects());
  if (why.empty()) why = StatsMismatch(got.sweep, want.sweep);
  if (why.empty() && got.objects_fetched != want.objects) {
    why = "objects_fetched " + std::to_string(got.objects_fetched) +
          " vs per-cell " + std::to_string(want.objects);
  }
  if (why.empty() && (got.accepted_cells != want.filter.accepted ||
                      got.rejected_cells != want.filter.rejected ||
                      got.candidate_cells != want.filter.candidates)) {
    why = "filter counts differ";
  }
  if (why.empty()) {
    FrEngine::QueryResult ref;
    ref.accepted_cells = want.filter.accepted;
    ref.rejected_cells = want.filter.rejected;
    ref.candidate_cells = want.filter.candidates;
    ref.objects_fetched = want.objects;
    ref.sweep = want.sweep;
    ExplainRecord got_explain, want_explain;
    StampExact(got, &got_explain);
    StampExact(ref, &want_explain);
    if (got_explain.DeterministicSignature() !=
        want_explain.DeterministicSignature()) {
      why = "EXPLAIN signatures differ";
    }
  }
  return why;
}

int64_t RangeQueryCount(IndexKind kind) {
  return MetricsRegistry::Global()
      .GetCounter(kind == IndexKind::kTprTree ? "pdr.tpr.range_queries"
                                              : "pdr.bx.range_queries")
      .value();
}

bool CountersLive() { return PdrObs::CompiledIn() && PdrObs::Enabled(); }

constexpr double kFetchEdge = 10.0;  // cell edge of every grouped-fetch grid
constexpr int kFetchSide = 16;
constexpr double kFetchExtent = kFetchEdge * kFetchSide;
constexpr Tick kFetchQt = 4;

// Objects for query width `l`: a clustered cloud on a quarter lattice that
// spills l/2 past the domain on every side, plus, for every cell, objects
// exactly on its l/2-window's four closed edges and corners, on its own
// edges, and coincident copies. Lattice targets move with integer
// velocities (their position at kFetchQt is exact); off-lattice edge
// targets (l a hair off a whole width) stand still.
std::vector<UpdateEvent> FetchObjects(double l, uint64_t seed) {
  Rng rng(seed);
  std::vector<UpdateEvent> events;
  const auto add = [&](Vec2 target) {
    const bool lattice = std::round(target.x * 4) == target.x * 4 &&
                         std::round(target.y * 4) == target.y * 4;
    const auto speed = [&] {
      return lattice ? static_cast<double>(rng.UniformInt(-1, 1)) : 0.0;
    };
    const Vec2 vel{speed(), speed()};
    UpdateEvent e;
    e.tick = 0;
    e.id = static_cast<ObjectId>(events.size() + 1);
    e.new_state = MotionState{
        {target.x - vel.x * kFetchQt, target.y - vel.y * kFetchQt}, vel, 0};
    events.push_back(e);
  };
  const auto lattice = [&](double lo, double hi) {
    return std::round(rng.Uniform(lo, hi) * 4) / 4;
  };
  // A lattice coordinate near `c`, at most l/2 outside the domain.
  const auto near = [&](double c, double spread) {
    return std::clamp(lattice(c - spread, c + spread), -l / 2,
                      kFetchExtent + l / 2);
  };
  for (int c = 0; c < 8; ++c) {
    const Vec2 center{lattice(0, kFetchExtent), lattice(0, kFetchExtent)};
    const double spread = rng.Uniform(5, 30);
    for (int i = 0; i < 120; ++i) {
      add({near(center.x, spread), near(center.y, spread)});
    }
  }
  const Grid grid(kFetchExtent, kFetchSide);
  for (int flat = 0; flat < grid.cell_count(); ++flat) {
    const Rect cell = grid.CellRect(flat);
    const Rect w = cell.Expanded(l / 2);
    const double along_x = lattice(w.x_lo, w.x_hi);
    const double along_y = lattice(w.y_lo, w.y_hi);
    add({w.x_lo, along_y});
    add({w.x_hi, along_y});
    add({along_x, w.y_lo});
    add({along_x, w.y_hi});
    add({rng.Bernoulli(0.5) ? w.x_lo : w.x_hi,
         rng.Bernoulli(0.5) ? w.y_lo : w.y_hi});
    add({cell.x_lo, along_y});
    add({cell.x_hi, cell.y_hi});
    add(events[static_cast<size_t>(rng.UniformInt(0, events.size() - 1))]
            .new_state->PositionAt(kFetchQt));
  }
  return events;
}

FrEngine::Options FetchEngineOptions(IndexKind kind) {
  return {.extent = kFetchExtent,
          .histogram_side = kFetchSide,
          .horizon = 16,
          .buffer_pages = 32,
          .index = kind,
          .max_update_interval = 8};
}

// A counter slice whose filter at l = 2 cells (conservative half-width 0,
// expansive 1) makes exactly the cells of `mask` candidates: every other
// cell holds n_min objects and is accepted, every mask cell holds none
// and sees an accepted neighbour. `blob` instead puts n_min - 1 in every
// cell: no cell accepts, every cell is a candidate.
std::vector<DensityHistogram::Counter> LayoutSlice(
    const std::vector<std::pair<int, int>>& mask, uint32_t n_min, bool blob) {
  std::vector<DensityHistogram::Counter> slice(kFetchSide * kFetchSide,
                                               blob ? n_min - 1 : n_min);
  for (const auto& [col, row] : mask) slice[row * kFetchSide + col] = 0;
  return slice;
}

// Every cluster shape the grouped fetch distinguishes, through
// FrQueryCore with a slice laid out to produce it. l is exactly two cells.
TEST(DifferentialTest, FrGroupedFetchMatchesPerCellQueriesOnClusterLayouts) {
  constexpr double kL = 2 * kFetchEdge;
  constexpr uint32_t kNMin = 6;
  const double rho = kNMin / (kL * kL);
  ASSERT_EQ(MinObjectsForDensity(rho, kL), kNMin);

  struct Layout {
    const char* name;
    std::vector<std::pair<int, int>> mask;
    bool blob;
    size_t clusters;
  };
  std::vector<Layout> layouts = {
      {"lone cells",
       {{0, 0}, {4, 1}, {9, 2}, {15, 7}, {2, 9}, {7, 12}, {13, 15}},
       false,
       7},
      {"diagonal-only neighbours",
       {{2, 2}, {3, 3}, {9, 4}, {8, 5}, {12, 11}, {13, 12}, {3, 12}, {4, 13}},
       false, 4},
      {"thin diagonal chain", {}, false, 1},
      {"ring", {}, false, 1},
      {"one blob spanning the domain", {}, true, 1},
  };
  for (int i = 0; i < kFetchSide; ++i) layouts[2].mask.emplace_back(i, i);
  for (int i = 4; i <= 11; ++i) {
    for (int j = 4; j <= 11; ++j) {
      if (i == 4 || i == 11 || j == 4 || j == 11) {
        layouts[3].mask.emplace_back(i, j);
      }
    }
  }

  ThreadPool workers(4);
  int64_t dense_rects = 0;
  for (IndexKind kind : {IndexKind::kTprTree, IndexKind::kBxTree}) {
    FrEngine fr(FetchEngineOptions(kind));
    for (const UpdateEvent& e : FetchObjects(kL, 17)) fr.Apply(e);
    const Grid& grid = fr.histogram().grid();
    for (const Layout& layout : layouts) {
      const auto slice = LayoutSlice(layout.mask, kNMin, layout.blob);
      const PerCellAnswer want =
          PerCellFrAnswer(grid, slice, fr.index(), kFetchQt, rho, kL);
      const std::vector<CandidateCluster> clusters =
          CandidateClusters(want.filter);
      ASSERT_EQ(clusters.size(), layout.clusters) << layout.name;
      if (!layout.blob) {
        ASSERT_EQ(want.filter.candidates,
                  static_cast<int64_t>(layout.mask.size()))
            << layout.name;
      }
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &workers}) {
        const std::string where =
            std::string(kind == IndexKind::kTprTree ? "tpr " : "bx ") +
            layout.name + (pool ? " 4 threads: " : " serial: ");
        const int64_t queries_before = RangeQueryCount(kind);
        const FrEngine::QueryResult got =
            FrQueryCore(grid, slice, fr.index(), pool, 10.0, kFetchQt, rho,
                        kL, /*cold_cache=*/false, {});
        if (CountersLive()) {
          EXPECT_EQ(RangeQueryCount(kind) - queries_before,
                    static_cast<int64_t>(clusters.size()))
              << where;
        }
        EXPECT_EQ(GroupedFetchMismatch(got, want), "") << where;
      }
      dense_rects += want.sweep.dense_rects;
    }
  }
  EXPECT_GT(dense_rects, 0);  // the comparison is not vacuous
}

// Natural layouts from the engine's own histogram at widths below one
// cell, a hair either side of two cells and seven cells, on both indexes,
// serial and on 4 threads (cold, so the I/O must match too), and through
// an MVCC snapshot.
TEST(DifferentialTest, FrGroupedFetchMatchesPerCellQueriesAcrossWidths) {
  int64_t candidates = 0;
  for (IndexKind kind : {IndexKind::kTprTree, IndexKind::kBxTree}) {
    for (double l : {5.0, 19.99999999999, 20.00000000001, 70.0}) {
      mvcc::SnapshotManager snapshots;
      FrEngine::Options options = FetchEngineOptions(kind);
      options.snapshots = &snapshots;
      FrEngine fr(options);
      for (const UpdateEvent& e : FetchObjects(l, 29)) fr.Apply(e);
      fr.Commit();
      // n_min a little above the mean l-square count, so cells of every
      // class appear.
      const double rho = 1.5 * static_cast<double>(fr.index().size()) /
                         (kFetchExtent * kFetchExtent);
      const std::string where = std::string(kind == IndexKind::kTprTree
                                                ? "tpr"
                                                : "bx") +
                                " l=" + std::to_string(l) + ": ";
      const PerCellAnswer want = PerCellFrAnswer(
          fr.histogram().grid(), fr.histogram().Slice(kFetchQt), fr.index(),
          kFetchQt, rho, l);
      const size_t clusters = CandidateClusters(want.filter).size();
      candidates += want.filter.candidates;

      int64_t queries_before = RangeQueryCount(kind);
      const FrEngine::QueryResult serial =
          fr.Query(kFetchQt, rho, l, /*cold_cache=*/true);
      if (CountersLive()) {
        EXPECT_EQ(RangeQueryCount(kind) - queries_before,
                  static_cast<int64_t>(clusters))
            << where;
      }
      EXPECT_EQ(GroupedFetchMismatch(serial, want), "") << where << "serial";

      fr.SetExecPolicy(ExecPolicy::Parallel(4));
      const FrEngine::QueryResult parallel =
          fr.Query(kFetchQt, rho, l, /*cold_cache=*/true);
      EXPECT_EQ(GroupedFetchMismatch(parallel, want), "")
          << where << "4 threads";
      EXPECT_EQ(parallel.cost.io.logical_reads, serial.cost.io.logical_reads)
          << where;
      EXPECT_EQ(parallel.cost.io.physical_reads,
                serial.cost.io.physical_reads)
          << where;

      mvcc::Snapshot snap = snapshots.Pin();
      queries_before = RangeQueryCount(kind);
      const FrEngine::QueryResult snapped =
          mvcc::SnapshotFrQuery(fr, snap, kFetchQt, rho, l);
      if (CountersLive()) {
        EXPECT_EQ(RangeQueryCount(kind) - queries_before,
                  static_cast<int64_t>(clusters))
            << where;
      }
      EXPECT_EQ(GroupedFetchMismatch(snapped, want), "") << where << "mvcc";
    }
  }
  EXPECT_GT(candidates, 0);
}

}  // namespace
}  // namespace pdr
