#include "pdr/sweep/plane_sweep.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"

namespace pdr {
namespace {

/// Writes to *events the stopping coordinates of one axis in increasing
/// order, each once: lo, every coordinate of the two sorted lists strictly
/// inside (lo, hi), and hi. `key` maps a list element to its coordinate.
/// Merging two sorted lists and skipping repeats yields the same doubles
/// as sorting their union and removing duplicates.
template <typename T, typename Key>
void MergeEvents(double lo, double hi, const std::vector<T>& a,
                 const std::vector<T>& b, Key key,
                 std::vector<double>* events) {
  events->clear();
  events->push_back(lo);
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    const double c = j == b.size() || (i < a.size() && key(a[i]) <= key(b[j]))
                         ? key(a[i++])
                         : key(b[j++]);
    if (c > lo && c < hi && c != events->back()) events->push_back(c);
  }
  if (hi != events->back()) events->push_back(hi);
}

/// Buffers one SweepCell call reuses across all of its Y-sweeps.
struct YSweepBuffers {
  std::vector<double> entries, exits, events;
  std::vector<std::pair<double, double>> segments;
};

/// The Y-sweep (Algorithm 3) into buf->segments.
void SweepYInto(const std::vector<double>& sorted_ys, double y_b, double y_t,
                double l, int64_t n_min, SweepStats* stats,
                const QueryControl* ctl, YSweepBuffers* buf) {
  assert(std::is_sorted(sorted_ys.begin(), sorted_ys.end()));
  // The object at oy is inside the square centered at y iff
  // oy - l/2 <= y < oy + l/2. Count strictly in terms of the *computed*
  // entry (oy - l/2) and exit (oy + l/2) coordinates — the same values
  // that define the stopping events — so that membership flips exactly at
  // the events. (Re-deriving the window as [y - l/2, y + l/2] from the
  // strip coordinate rounds differently and can keep an object one strip
  // past its own exit event.) Rounding is monotone, so sorted ys give
  // sorted entries and exits.
  std::vector<double>& entries = buf->entries;
  std::vector<double>& exits = buf->exits;
  entries.clear();
  exits.clear();
  for (double oy : sorted_ys) {
    entries.push_back(oy - l / 2);
    exits.push_back(oy + l / 2);
  }
  MergeEvents(y_b, y_t, entries, exits, [](double c) { return c; },
              &buf->events);
  const std::vector<double>& events = buf->events;

  std::vector<std::pair<double, double>>& dense = buf->segments;
  dense.clear();
  size_t entered = 0;  // entries <= y
  size_t exited = 0;   // exits <= y
  for (size_t j = 0; j + 1 < events.size(); ++j) {
    if (ctl != nullptr) ctl->Check();  // cancellation point per Y-strip
    if (stats != nullptr) ++stats->y_strips;
    const double y = events[j];
    while (entered < entries.size() && entries[entered] <= y) ++entered;
    while (exited < exits.size() && exits[exited] <= y) ++exited;
    if (static_cast<int64_t>(entered - exited) >= n_min) {
      if (!dense.empty() && dense.back().second == y) {
        dense.back().second = events[j + 1];  // extend the previous segment
      } else {
        dense.emplace_back(y, events[j + 1]);
      }
    }
  }
}

std::vector<Rect> SweepCellImpl(const Rect& cell,
                                const std::vector<Vec2>& positions, double l,
                                int64_t n_min, SweepStats* stats,
                                const QueryControl* ctl) {
  std::vector<Rect> result;
  if (n_min <= 0) {
    // Degenerate threshold: everything is dense.
    result.push_back(cell);
    if (stats != nullptr) ++stats->dense_rects;
    return result;
  }
  if (static_cast<int64_t>(positions.size()) < n_min) return result;

  // (coordinate, y) entry and exit lists for incremental band membership:
  // an object at ox is inside the band centered at x iff
  // ox - l/2 <= x < ox + l/2.
  std::vector<std::pair<double, double>> by_entry, by_exit;
  by_entry.reserve(positions.size());
  by_exit.reserve(positions.size());
  for (const Vec2& p : positions) {
    by_entry.emplace_back(p.x - l / 2, p.y);
    by_exit.emplace_back(p.x + l / 2, p.y);
  }
  std::sort(by_entry.begin(), by_entry.end());
  std::sort(by_exit.begin(), by_exit.end());
  std::vector<double> events;
  MergeEvents(cell.x_lo, cell.x_hi, by_entry, by_exit,
              [](const std::pair<double, double>& e) { return e.first; },
              &events);

  // Sorted y-coordinates of the current band members: the Y-sweep's input.
  std::vector<double> band;
  YSweepBuffers buf;
  size_t next_entry = 0;
  size_t next_exit = 0;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    if (ctl != nullptr) ctl->Check();  // cancellation point per X-strip
    const double x = events[i];
    if (stats != nullptr) ++stats->x_strips;
    // Admit objects whose entry coordinate has been reached...
    while (next_entry < by_entry.size() && by_entry[next_entry].first <= x) {
      const double y = by_entry[next_entry++].second;
      band.insert(std::upper_bound(band.begin(), band.end(), y), y);
    }
    // ...and expel objects whose exit coordinate has been reached.
    while (next_exit < by_exit.size() && by_exit[next_exit].first <= x) {
      const double y = by_exit[next_exit++].second;
      const auto it = std::lower_bound(band.begin(), band.end(), y);
      assert(it != band.end() && *it == y);
      band.erase(it);
    }
    if (static_cast<int64_t>(band.size()) < n_min) continue;
    if (stats != nullptr) ++stats->y_sweeps;

    SweepYInto(band, cell.y_lo, cell.y_hi, l, n_min, stats, ctl, &buf);
    for (const auto& [y_lo, y_hi] : buf.segments) {
      result.emplace_back(x, y_lo, events[i + 1], y_hi);
      if (stats != nullptr) ++stats->dense_rects;
    }
  }
  return result;
}

}  // namespace

std::vector<std::pair<double, double>> SweepY(
    const std::vector<double>& sorted_ys, double y_b, double y_t, double l,
    int64_t n_min, SweepStats* stats, const QueryControl* ctl) {
  YSweepBuffers buf;
  SweepYInto(sorted_ys, y_b, y_t, l, n_min, stats, ctl, &buf);
  return std::move(buf.segments);
}

std::vector<Rect> SweepCell(const Rect& cell,
                            const std::vector<Vec2>& positions, double l,
                            int64_t n_min, SweepStats* stats,
                            const QueryControl* ctl) {
  SweepStats local;
  std::vector<Rect> result =
      SweepCellImpl(cell, positions, l, n_min, &local, ctl);

  static Counter& cells =
      MetricsRegistry::Global().GetCounter("pdr.sweep.cells");
  static Counter& x_strips =
      MetricsRegistry::Global().GetCounter("pdr.sweep.x_strips");
  static Counter& y_sweeps =
      MetricsRegistry::Global().GetCounter("pdr.sweep.y_sweeps");
  static Counter& y_strips =
      MetricsRegistry::Global().GetCounter("pdr.sweep.y_strips");
  static Counter& dense_rects =
      MetricsRegistry::Global().GetCounter("pdr.sweep.dense_rects");
  cells.Increment();
  x_strips.Add(local.x_strips);
  y_sweeps.Add(local.y_sweeps);
  y_strips.Add(local.y_strips);
  dense_rects.Add(local.dense_rects);

  // One summary event per cell sweep (not per strip: the flight recorder
  // tracks the decision chain, per-strip work stays in the counters).
  FlightRecorder::Record(
      FrEvent::kSweep, FlightRecorder::Pack(local.x_strips, local.y_sweeps),
      FlightRecorder::Pack(local.y_strips, local.dense_rects));
  if (stats != nullptr) *stats += local;
  return result;
}

}  // namespace pdr
