#include "pdr/common/region.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>
#include <utility>

namespace pdr {
namespace {

using Intervals = SlabStitcher::Intervals;

// One vertical slab boundary: a rectangle either starts (+1) or ends (-1)
// contributing its y-interval at coordinate x.
struct XEvent {
  double x;
  bool open;  // true = interval becomes active, false = deactivates
  double y_lo;
  double y_hi;
};

std::vector<XEvent> BuildEvents(const std::vector<Rect>& rects) {
  std::vector<XEvent> events;
  events.reserve(rects.size() * 2);
  for (const Rect& r : rects) {
    if (r.Empty()) continue;
    events.push_back({r.x_lo, true, r.y_lo, r.y_hi});
    events.push_back({r.x_hi, false, r.y_lo, r.y_hi});
  }
  std::sort(events.begin(), events.end(),
            [](const XEvent& a, const XEvent& b) { return a.x < b.x; });
  return events;
}

// Multiset of active y-intervals, kept as a vector sorted by (lo, hi) with
// duplicates adjacent — the order merging needs.
class ActiveIntervals {
 public:
  using Interval = std::pair<double, double>;

  void Add(double lo, double hi) {
    const Interval iv(lo, hi);
    intervals_.insert(
        std::upper_bound(intervals_.begin(), intervals_.end(), iv), iv);
  }

  void Remove(double lo, double hi) {
    const Interval iv(lo, hi);
    const auto it = std::lower_bound(intervals_.begin(), intervals_.end(), iv);
    assert(it != intervals_.end() && *it == iv);
    intervals_.erase(it);
  }

  bool Empty() const { return intervals_.empty(); }

  /// Disjoint, non-touching sorted union of the active intervals, built
  /// into a buffer the next call reuses; LastUnion() returns it until then.
  const Intervals& MergedUnion() {
    merged_.clear();
    for (const Interval& iv : intervals_) {
      if (!merged_.empty() && iv.first <= merged_.back().second) {
        merged_.back().second = std::max(merged_.back().second, iv.second);
      } else {
        merged_.push_back(iv);
      }
    }
    return merged_;
  }

  const Intervals& LastUnion() const { return merged_; }

  double UnionLength() {
    double len = 0;
    for (const auto& [lo, hi] : MergedUnion()) len += hi - lo;
    return len;
  }

 private:
  std::vector<Interval> intervals_;
  Intervals merged_;
};

// Applies every event at coordinate `x` from events[*i] on, advancing *i;
// true when there was one.
bool ApplyEventsAt(const std::vector<XEvent>& events, double x, size_t* i,
                   ActiveIntervals* active) {
  const size_t first = *i;
  for (; *i < events.size() && events[*i].x == x; ++*i) {
    const XEvent& e = events[*i];
    if (e.open) {
      active->Add(e.y_lo, e.y_hi);
    } else {
      active->Remove(e.y_lo, e.y_hi);
    }
  }
  return *i != first;
}

double MergedOverlapLength(const Intervals& a, const Intervals& b) {
  double len = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) len += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return len;
}

}  // namespace

Region::Region(std::vector<Rect> rects) {
  rects_.reserve(rects.size());
  for (const Rect& r : rects) Add(r);
}

void Region::Add(const Rect& r) {
  if (!r.Empty()) rects_.push_back(r);
}

void Region::Add(const Region& other) {
  rects_.insert(rects_.end(), other.rects_.begin(), other.rects_.end());
}

double Region::Area() const { return UnionArea(rects_); }

bool Region::Contains(Vec2 p) const {
  for (const Rect& r : rects_) {
    if (r.ContainsHalfOpen(p)) return true;
  }
  return false;
}

Rect Region::BoundingBox() const {
  if (rects_.empty()) return Rect();
  Rect box = rects_.front();
  for (const Rect& r : rects_) box = box.Union(r);
  return box;
}

Region Region::ClippedTo(const Rect& window) const {
  Region out;
  for (const Rect& r : rects_) out.Add(r.Intersection(window));
  return out;
}

Region Region::Coalesced() const {
  // Slab decomposition: cut the plane at every rectangle x-edge and stitch
  // each slab's merged y-union onto the slabs to its left.
  const std::vector<XEvent> events = BuildEvents(rects_);
  ActiveIntervals active;
  SlabStitcher stitcher;
  size_t i = 0;
  while (i < events.size()) {
    const double x = events[i].x;
    ApplyEventsAt(events, x, &i, &active);
    stitcher.Cut(x, active.MergedUnion());
  }
  return stitcher.Take();
}

void SlabStitcher::Cut(double x, const Intervals& merged) {
  // Keep every open rect whose interval recurs exactly, close the others,
  // open the new intervals. Both lists are disjoint and in y order, so
  // y_lo orders them totally and one walk pairs them up.
  still_open_.clear();
  closed_.clear();
  size_t k = 0;
  for (const OpenRect& o : open_) {
    for (; k < merged.size() && merged[k].first < o.y_lo; ++k) {
      still_open_.push_back({x, merged[k].first, merged[k].second});
    }
    if (k < merged.size() && merged[k].first == o.y_lo &&
        merged[k].second == o.y_hi) {
      still_open_.push_back(o);
      ++k;
    } else if (x > o.x_start) {
      closed_.push_back(o);
    }
  }
  for (; k < merged.size(); ++k) {
    still_open_.push_back({x, merged[k].first, merged[k].second});
  }
  open_.swap(still_open_);
  // Emit in (x_start, y_lo) order, the order an open list kept in
  // insertion order holds: continued rects keep theirs, and rects opened
  // at a later cut start at a larger x. Every output is then strictly
  // increasing in (x_hi, x_lo, y_lo).
  std::sort(closed_.begin(), closed_.end(),
            [](const OpenRect& a, const OpenRect& b) {
              return a.x_start < b.x_start ||
                     (a.x_start == b.x_start && a.y_lo < b.y_lo);
            });
  for (const OpenRect& o : closed_) {
    out_.Add(Rect(o.x_start, o.y_lo, x, o.y_hi));
  }
}

Region SlabStitcher::Take() {
  assert(open_.empty());
  return std::move(out_);
}

std::string Region::ToString() const {
  std::ostringstream os;
  os << "Region{";
  for (size_t i = 0; i < rects_.size(); ++i) {
    if (i) os << ", ";
    os << rects_[i];
  }
  os << "}";
  return os.str();
}

double UnionArea(const std::vector<Rect>& rects) {
  std::vector<XEvent> events = BuildEvents(rects);
  if (events.empty()) return 0.0;
  ActiveIntervals active;
  double area = 0.0;
  double prev_x = events.front().x;
  size_t i = 0;
  while (i < events.size()) {
    const double x = events[i].x;
    area += active.UnionLength() * (x - prev_x);
    ApplyEventsAt(events, x, &i, &active);
    prev_x = x;
  }
  return area;
}

double IntersectionArea(const Region& a, const Region& b) {
  std::vector<XEvent> ea = BuildEvents(a.rects());
  std::vector<XEvent> eb = BuildEvents(b.rects());
  if (ea.empty() || eb.empty()) return 0.0;

  ActiveIntervals active_a;
  ActiveIntervals active_b;
  double area = 0.0;
  size_t i = 0, j = 0;
  double prev_x = std::min(ea.front().x, eb.front().x);
  while (i < ea.size() || j < eb.size()) {
    const double x = std::min(
        i < ea.size() ? ea[i].x : std::numeric_limits<double>::infinity(),
        j < eb.size() ? eb[j].x : std::numeric_limits<double>::infinity());
    if (!active_a.Empty() && !active_b.Empty()) {
      area += MergedOverlapLength(active_a.MergedUnion(),
                                  active_b.MergedUnion()) *
              (x - prev_x);
    }
    ApplyEventsAt(ea, x, &i, &active_a);
    ApplyEventsAt(eb, x, &j, &active_b);
    prev_x = x;
  }
  return area;
}

double DifferenceArea(const Region& a, const Region& b) {
  return a.Area() - IntersectionArea(a, b);
}

namespace {

/// Sorted, disjoint, non-touching intervals of `a` minus `b` (both so)
/// into *out.
void IntervalDifference(const Intervals& a, const Intervals& b,
                        Intervals* out) {
  out->clear();
  size_t j = 0;
  for (auto [lo, hi] : a) {
    double cursor = lo;
    while (j < b.size() && b[j].second <= cursor) ++j;
    size_t k = j;
    while (k < b.size() && b[k].first < hi) {
      if (b[k].first > cursor) out->emplace_back(cursor, b[k].first);
      cursor = std::max(cursor, b[k].second);
      if (cursor >= hi) break;
      ++k;
    }
    if (cursor < hi) out->emplace_back(cursor, hi);
  }
}

/// Sorted, disjoint, non-touching intervals of `a` within `b` (both so)
/// into *out.
void IntervalIntersection(const Intervals& a, const Intervals& b,
                          Intervals* out) {
  out->clear();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) out->emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
}

/// Shared slab sweep for constructive boolean operations: at every x
/// where either region has an edge, slab(x, A, B) gets the two active
/// interval unions, re-merged only on the side whose edges lie at x.
/// IntervalDifference and IntervalIntersection map them to the result's
/// intervals on that slab, which go straight to a stitcher. They are
/// already sorted, disjoint and non-touching — what Coalesced's merged
/// union of the per-slab rects would be — so the output is the rects
/// Coalesced() of those per-slab rects returns, in the same order.
template <typename Slab>
void BooleanCombine(const Region& a, const Region& b, const Slab& slab) {
  const std::vector<XEvent> ea = BuildEvents(a.rects());
  const std::vector<XEvent> eb = BuildEvents(b.rects());
  ActiveIntervals active_a;
  ActiveIntervals active_b;
  size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    const double x = std::min(
        i < ea.size() ? ea[i].x : std::numeric_limits<double>::infinity(),
        j < eb.size() ? eb[j].x : std::numeric_limits<double>::infinity());
    if (ApplyEventsAt(ea, x, &i, &active_a)) active_a.MergedUnion();
    if (ApplyEventsAt(eb, x, &j, &active_b)) active_b.MergedUnion();
    slab(x, active_a.LastUnion(), active_b.LastUnion());
  }
}

/// One constructive operation: `op` maps each slab's two unions to the
/// result's intervals there, stitched into the output.
template <typename IntervalOp>
Region StitchCombined(const Region& a, const Region& b, const IntervalOp& op) {
  SlabStitcher stitcher;
  Intervals slab;
  BooleanCombine(a, b,
                 [&](double x, const Intervals& ua, const Intervals& ub) {
                   op(ua, ub, &slab);
                   stitcher.Cut(x, slab);
                 });
  return stitcher.Take();
}

}  // namespace

Region RegionDifference(const Region& a, const Region& b) {
  if (a.IsEmpty()) return Region();
  if (b.IsEmpty()) return a.Coalesced();
  return StitchCombined(a, b, IntervalDifference);
}

std::pair<Region, Region> RegionDifferences(const Region& a,
                                            const Region& b) {
  if (a.IsEmpty() || b.IsEmpty()) {
    return {RegionDifference(a, b), RegionDifference(b, a)};
  }
  SlabStitcher a_minus_b;
  SlabStitcher b_minus_a;
  Intervals slab;
  BooleanCombine(a, b,
                 [&](double x, const Intervals& ua, const Intervals& ub) {
                   IntervalDifference(ua, ub, &slab);
                   a_minus_b.Cut(x, slab);
                   IntervalDifference(ub, ua, &slab);
                   b_minus_a.Cut(x, slab);
                 });
  return {a_minus_b.Take(), b_minus_a.Take()};
}

Region RegionIntersection(const Region& a, const Region& b) {
  if (a.IsEmpty() || b.IsEmpty()) return Region();
  return StitchCombined(a, b, IntervalIntersection);
}

double SymmetricDifferenceArea(const Region& a, const Region& b) {
  return a.Area() + b.Area() - 2.0 * IntersectionArea(a, b);
}

}  // namespace pdr
