#include "pdr/sweep/plane_sweep.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"

namespace pdr {
namespace {

/// Writes to *events the stopping coordinates of one axis in increasing
/// order, each once: lo, every entry(i) and exit(i) strictly inside
/// (lo, hi), and hi. Both lists must be ascending in i. Merging two sorted
/// lists and skipping repeats yields the same doubles as sorting their
/// union and removing duplicates.
template <typename Entry, typename Exit>
void MergeEvents(double lo, double hi, size_t n, Entry entry, Exit exit,
                 std::vector<double>* events) {
  events->clear();
  events->push_back(lo);
  size_t i = 0, j = 0;
  while (i < n || j < n) {
    const double c =
        j == n || (i < n && entry(i) <= exit(j)) ? entry(i++) : exit(j++);
    if (c > lo && c < hi && c != events->back()) events->push_back(c);
  }
  if (hi != events->back()) events->push_back(hi);
}

/// An object's y-interval as indices into the Y boundary table: the first
/// boundary >= its entry oy - l/2 and the first >= its exit oy + l/2, each
/// capped at the top boundary.
struct YSpan {
  uint32_t entry;
  uint32_t exit;
};

/// The Y side of one cell. The boundary table holds y_lo, every entry and
/// exit strictly inside (y_lo, y_hi), and y_hi; the band lives on it as a
/// count delta per boundary, a member count per interior boundary with an
/// occupancy bit while it is nonzero, and the band size. An object enters
/// or leaves in O(1); a Y-sweep visits boundary 0 and the occupied
/// boundaries, which are exactly the events the band's own entries and
/// exits would give.
class YBand {
 public:
  /// Builds the table for ys ascending in i (y(i) for i < n) and reports
  /// each one's span as span(i, YSpan).
  template <typename Y, typename Span>
  YBand(double y_lo, double y_hi, double l, size_t n, Y y, Span span) {
    // Rounding is monotone, so ascending ys give ascending entries and
    // exits: the expressions the sort-per-strip form uses, on the same
    // doubles.
    const auto entry = [&](size_t i) { return y(i) - l / 2; };
    const auto exit = [&](size_t i) { return y(i) + l / 2; };
    MergeEvents(y_lo, y_hi, n, entry, exit, &bounds_);
    const uint32_t top = Top();
    uint32_t e = 0, x = 0;  // forward cursors: entries and exits ascend
    for (size_t i = 0; i < n; ++i) {
      while (e < top && bounds_[e] < entry(i)) ++e;
      while (x < top && bounds_[x] < exit(i)) ++x;
      span(i, YSpan{e, x});
    }
    counts_.resize(bounds_.size());
    occupied_.resize(bounds_.size() / 64 + 1);
  }

  /// E, the index of y_hi: the table holds E strips.
  uint32_t Top() const { return static_cast<uint32_t>(bounds_.size() - 1); }
  size_t size() const { return size_; }

  // A member counts on the strips [entry, exit). Where the two indices
  // meet (an object wholly below or above the cell) the +1 and -1 cancel.
  void Enter(YSpan s) {
    ++size_;
    ++counts_[s.entry].delta;
    --counts_[s.exit].delta;
    Occupy(s.entry);
    Occupy(s.exit);
  }

  void Leave(YSpan s) {
    --size_;
    --counts_[s.entry].delta;
    ++counts_[s.exit].delta;
    Vacate(s.entry);
    Vacate(s.exit);
  }

  /// The Y-sweep (Algorithm 3) over the current band: emit(y_lo, y_hi) per
  /// maximal run of strips whose count meets n_min, and one y_strip per
  /// strip between the visited boundaries.
  template <typename Emit>
  void Sweep(int64_t n_min, int64_t* y_strips, Emit emit) const {
    const uint32_t top = Top();
    if (top == 0) return;  // zero-height cell: no strip
    constexpr uint32_t kClosed = ~uint32_t{0};
    int64_t count = counts_[0].delta;
    uint32_t start = count >= n_min ? 0 : kClosed;
    int64_t strips = 1;
    for (size_t w = 0; w < occupied_.size(); ++w) {
      uint64_t bits = occupied_[w];
      strips += std::popcount(bits);
      for (; bits != 0; bits &= bits - 1) {
        const uint32_t k =
            static_cast<uint32_t>(w * 64) + std::countr_zero(bits);
        count += counts_[k].delta;
        if (start == kClosed) {
          if (count >= n_min) start = k;
        } else if (count < n_min) {
          emit(bounds_[start], bounds_[k]);
          start = kClosed;
        }
      }
    }
    if (start != kClosed) emit(bounds_[start], bounds_[top]);
    *y_strips += strips;
  }

 private:
  struct Count {
    int32_t delta = 0;    // count change at this boundary
    int32_t members = 0;  // band entries and exits exactly here (interior)
  };

  bool Interior(uint32_t k) const { return k != 0 && k < Top(); }

  void Occupy(uint32_t k) {
    if (Interior(k) && counts_[k].members++ == 0) {
      occupied_[k / 64] |= uint64_t{1} << (k % 64);
    }
  }

  void Vacate(uint32_t k) {
    if (Interior(k) && --counts_[k].members == 0) {
      occupied_[k / 64] &= ~(uint64_t{1} << (k % 64));
    }
  }

  std::vector<double> bounds_;
  std::vector<Count> counts_;
  std::vector<uint64_t> occupied_;  // one bit per boundary, interior set
  size_t size_ = 0;
};

std::vector<Rect> SweepCellImpl(const Rect& cell,
                                const std::vector<Vec2>& positions, double l,
                                int64_t n_min, SweepStats* stats,
                                const QueryControl* ctl) {
  std::vector<Rect> result;
  if (n_min <= 0) {
    // Degenerate threshold: everything is dense.
    result.push_back(cell);
    ++stats->dense_rects;
    return result;
  }
  if (static_cast<int64_t>(positions.size()) < n_min) return result;
  const size_t n = positions.size();

  // One sort per axis. An object at ox is inside the band centered at x iff
  // ox - l/2 <= x < ox + l/2; rounding is monotone, so x order is both
  // entry and exit order, and y order likewise for the boundary table.
  std::vector<std::pair<double, uint32_t>> by_y(n);
  for (size_t i = 0; i < n; ++i) {
    by_y[i] = {positions[i].y, static_cast<uint32_t>(i)};
  }
  std::sort(by_y.begin(), by_y.end());
  struct XItem {
    double x;
    YSpan span;
  };
  std::vector<XItem> by_x(n);
  YBand band(
      cell.y_lo, cell.y_hi, l, n, [&](size_t i) { return by_y[i].first; },
      [&](size_t i, YSpan s) {
        by_x[by_y[i].second] = {positions[by_y[i].second].x, s};
      });
  std::sort(by_x.begin(), by_x.end(),
            [](const XItem& a, const XItem& b) { return a.x < b.x; });
  const auto entry = [&](size_t i) { return by_x[i].x - l / 2; };
  const auto exit = [&](size_t i) { return by_x[i].x + l / 2; };
  std::vector<double> events;
  MergeEvents(cell.x_lo, cell.x_hi, n, entry, exit, &events);

  size_t next_entry = 0;
  size_t next_exit = 0;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    if (ctl != nullptr) ctl->Check();  // cancellation point per X-strip
    const double x = events[i];
    ++stats->x_strips;
    // Admit objects whose entry coordinate has been reached...
    while (next_entry < n && entry(next_entry) <= x) {
      band.Enter(by_x[next_entry++].span);
    }
    // ...and expel objects whose exit coordinate has been reached.
    while (next_exit < n && exit(next_exit) <= x) {
      band.Leave(by_x[next_exit++].span);
    }
    if (static_cast<int64_t>(band.size()) < n_min) continue;
    ++stats->y_sweeps;
    band.Sweep(n_min, &stats->y_strips, [&](double y_lo, double y_hi) {
      result.emplace_back(x, y_lo, events[i + 1], y_hi);
      ++stats->dense_rects;
    });
  }
  return result;
}

}  // namespace

std::vector<std::pair<double, double>> SweepY(
    const std::vector<double>& sorted_ys, double y_b, double y_t, double l,
    int64_t n_min, SweepStats* stats, const QueryControl* ctl) {
  assert(std::is_sorted(sorted_ys.begin(), sorted_ys.end()));
  if (ctl != nullptr) ctl->Check();
  // One X-strip of SweepCell's kernel, with every given y in the band.
  std::vector<YSpan> spans(sorted_ys.size());
  YBand band(
      y_b, y_t, l, sorted_ys.size(), [&](size_t i) { return sorted_ys[i]; },
      [&](size_t i, YSpan s) { spans[i] = s; });
  for (YSpan s : spans) band.Enter(s);
  std::vector<std::pair<double, double>> segments;
  int64_t y_strips = 0;
  band.Sweep(n_min, &y_strips, [&](double lo, double hi) {
    segments.emplace_back(lo, hi);
  });
  if (stats != nullptr) stats->y_strips += y_strips;
  return segments;
}

void FoldRepeatedStrips(std::vector<Rect>* rects) {
  std::vector<Rect>& r = *rects;
  const auto same_runs = [&](size_t a, size_t b, size_t len) {
    for (size_t k = 0; k < len; ++k) {
      if (r[a + k].y_lo != r[b + k].y_lo || r[a + k].y_hi != r[b + k].y_hi) {
        return false;
      }
    }
    return true;
  };
  size_t kept = 0, kept_end = 0;  // the last kept strip, already compacted
  size_t i = 0;
  while (i < r.size()) {
    size_t j = i + 1;
    while (j < r.size() && r[j].x_lo == r[i].x_lo) ++j;
    if (kept_end > kept && r[kept].x_hi == r[i].x_lo &&
        kept_end - kept == j - i && same_runs(kept, i, j - i)) {
      for (size_t k = kept; k < kept_end; ++k) r[k].x_hi = r[i].x_hi;
    } else {
      kept = kept_end;
      for (size_t k = i; k < j; ++k) r[kept_end++] = r[k];
    }
    i = j;
  }
  r.resize(kept_end);
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
