// Object rasterization with the paper's l-square edge semantics.
//
// The FFT engine's error story rests on a binning convention that matches
// Definition 1 exactly. The l-square S_l(p) is *closed on its top and
// right edges and open on its left and bottom edges*, so the raster cell
// must be too: cell (col, row) of an m x m RasterGrid covers
//
//   (col * g, (col + 1) * g]  x  (row * g, (row + 1) * g],   g = extent/m
//
// — the mirror image of the histogram Grid's half-open [lo, hi) cells.
// With this convention the block-sum neighborhoods close exactly
// (DESIGN.md §15): for any point p inside cell j,
//
//   conservative half-width  a = floor(l / (2g)) - 1   cells
//     (every cell of the (2a+1)-block lies inside S_l(p); a < 0 means no
//      certain accept is possible at this resolution),
//   expansive half-width     b = ceil(l / (2g))        cells
//     (the (2b+1)-block covers S_l(p)),
//
// of the exact quotient, with no "+1" slack cell (the per-axis
// containment argument of DESIGN.md §15). These are the histogram
// filter's half-widths under (lo, hi] cells, so RasterGrid calls
// histogram/filter.h's exact ConservativeHalfWidth / ExpansiveHalfWidth.
// The accept region derived from `a` is a subset of the exact answer and
// the accept+candidate region derived from `b` a superset — the sandwich
// tests/fft_test.cc asserts against exact FR.
//
// Domain edges: positions follow the oracle's closed-domain convention
// (InDomainPositions: 0 <= x <= extent counted, everything else dropped).
// x = 0 has no cell under the open-left convention, so it is clamped into
// cell 0 (symmetrically, x = extent lands in cell m-1 naturally). The
// clamp can disturb the sandwich only on the measure-zero locus of points
// whose l-square edge passes exactly through the domain origin, so every
// containment claim here and in DESIGN.md §15 is up to area zero.

#ifndef PDR_FFT_RASTER_H_
#define PDR_FFT_RASTER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "pdr/common/geometry.h"
#include "pdr/histogram/filter.h"

namespace pdr {

/// Uniform m x m grid over [0, extent]^2 with closed-top/right cells.
class RasterGrid {
 public:
  RasterGrid(double extent, int m)
      : extent_(extent), m_(m), edge_(extent / m) {}

  double extent() const { return extent_; }
  int cells_per_side() const { return m_; }
  double cell_edge() const { return edge_; }

  /// Column of coordinate x under (lo, hi] cell semantics: the cell whose
  /// closed top edge is the smallest multiple of g that is >= x. Clamped
  /// into [0, m-1] (x = 0 joins cell 0, x = extent cell m-1).
  int ColOf(double x) const {
    return std::clamp(static_cast<int>(std::ceil(x / edge_)) - 1, 0, m_ - 1);
  }
  int RowOf(double y) const { return ColOf(y); }

  /// Conservative block half-width for neighborhood edge l (may be < 0:
  /// no accept possible at this resolution).
  int ConservativeHalfWidth(double l) const {
    return pdr::ConservativeHalfWidth(l, edge_);
  }

  /// Expansive block half-width for neighborhood edge l.
  int ExpansiveHalfWidth(double l) const {
    return pdr::ExpansiveHalfWidth(l, edge_);
  }

 private:
  double extent_;
  int m_;
  double edge_;
};

/// Rasterizes predicted positions onto the grid: one count per object
/// whose position lies in the closed domain [0, extent]^2 (out-of-domain
/// objects are dropped, matching Oracle::InDomainPositions). Returns the
/// m x m row-major count image; the counts sum to the in-domain object
/// count.
std::vector<int64_t> RasterizeCounts(const RasterGrid& grid,
                                     const std::vector<Vec2>& positions);

}  // namespace pdr

#endif  // PDR_FFT_RASTER_H_
