// Region algebra over unions of axis-aligned half-open rectangles.
//
// PDR query answers are unions of rectangles [x_i, x_{i+1}) x [y_j, y_{j+1})
// (Section 5.3 of the paper). The paper's accuracy metrics (Section 7.2)
//
//   r_fp = area(D' \ D) / area(D)      (may exceed 100%)
//   r_fn = area(D \ D') / area(D)      (never exceeds 100%)
//
// require exact areas of boolean combinations of two such unions. This
// module provides those measures with an x-sweep and 1-D interval merging,
// plus normalization (coalescing into disjoint maximal rectangles) used to
// keep reported answers small and canonical.
//
// Cost. Every operation sorts its rectangles' x-edges and walks the
// resulting slabs. Per slab it re-merges the active y-intervals of each
// side whose edges lie at that x, and stitches the slab's result onto the
// open rectangles with one merge walk, so a slab of s intervals costs
// O(active + s) and the whole operation
// O(n log n + sum over slabs of (active + s)).
//
// Output order. Every constructive operation (Coalesced, RegionDifference,
// RegionDifferences, RegionIntersection) emits its rectangles strictly
// increasing in (x_hi, x_lo, y_lo): a rectangle is emitted when the slab
// walk closes it, and the rectangles closed at one x in (x_lo, y_lo)
// order.

#ifndef PDR_COMMON_REGION_H_
#define PDR_COMMON_REGION_H_

#include <string>
#include <utility>
#include <vector>

#include "pdr/common/geometry.h"

namespace pdr {

/// A (possibly overlapping) union of half-open axis-aligned rectangles.
class Region {
 public:
  Region() = default;
  explicit Region(std::vector<Rect> rects);

  /// Adds one rectangle; empty rectangles are ignored.
  void Add(const Rect& r);

  /// Adds every rectangle of `other`.
  void Add(const Region& other);

  const std::vector<Rect>& rects() const { return rects_; }
  bool IsEmpty() const { return rects_.empty(); }
  size_t size() const { return rects_.size(); }
  void Clear() { rects_.clear(); }

  /// Exact area of the union (overlaps counted once).
  double Area() const;

  /// True when `p` lies in some rectangle under half-open semantics.
  bool Contains(Vec2 p) const;

  /// Smallest rectangle enclosing the whole region (empty Rect if empty).
  Rect BoundingBox() const;

  /// Canonical form: a region covering the same point set, made of disjoint
  /// rectangles, with horizontally adjacent slabs merged. Deterministic for
  /// a given point set regardless of input rectangle order.
  Region Coalesced() const;

  /// The part of this region inside `window` (rectangles clipped).
  Region ClippedTo(const Rect& window) const;

  std::string ToString() const;

 private:
  std::vector<Rect> rects_;
};

/// The stitching step of Region::Coalesced, for callers that already know
/// each x-slab's y-union (grid cells, column by column). Call Cut at every
/// slab boundary in increasing x, the last one with an empty union; a
/// rectangle extends rightward while its y-interval recurs unchanged, and
/// Take returns the rectangles in the order Coalesced emits them.
class SlabStitcher {
 public:
  using Intervals = std::vector<std::pair<double, double>>;

  /// Starts the slab at `x` whose y-union is `merged` (sorted, disjoint,
  /// non-empty, non-touching): open rectangles whose interval is gone
  /// close at `x`, new intervals open there. The open rectangles are the
  /// previous slab's union, so one merge walk matches them against
  /// `merged` on the exact (y_lo, y_hi) pair; the ones closed here are
  /// emitted in (x_lo, y_lo) order.
  void Cut(double x, const Intervals& merged);

  /// The stitched rectangles; every slab must have been closed.
  Region Take();

 private:
  struct OpenRect {
    double x_start;
    double y_lo;
    double y_hi;
  };
  std::vector<OpenRect> open_;  // in y order
  std::vector<OpenRect> still_open_;
  std::vector<OpenRect> closed_;
  Region out_;
};

/// Exact area of the union of `rects`.
double UnionArea(const std::vector<Rect>& rects);

/// Exact area of (union of `a`) intersected with (union of `b`).
double IntersectionArea(const Region& a, const Region& b);

/// Exact area of (union of `a`) minus (union of `b`).
double DifferenceArea(const Region& a, const Region& b);

/// Exact area of the symmetric difference of the two unions.
double SymmetricDifferenceArea(const Region& a, const Region& b);

/// The set difference (union of `a`) minus (union of `b`), as a coalesced
/// region of disjoint rectangles.
Region RegionDifference(const Region& a, const Region& b);

/// {RegionDifference(a, b), RegionDifference(b, a)} from one slab walk,
/// which re-merges at each x only the side whose edges lie there: the
/// backbone of continuous-query deltas (what appeared, what vanished).
std::pair<Region, Region> RegionDifferences(const Region& a, const Region& b);

/// The intersection (union of `a`) with (union of `b`), coalesced.
Region RegionIntersection(const Region& a, const Region& b);

}  // namespace pdr

#endif  // PDR_COMMON_REGION_H_
