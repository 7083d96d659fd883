// Filtering step of the FR algorithm (Section 5.2, Algorithm 1).
//
// Using only the density histogram, every grid cell is classified as
//
//   kAccept:    the *conservative neighborhood* C_ij (the largest centered
//               block of cells contained in S_l(p) for every point p of the
//               cell) already holds >= rho*l^2 objects, so the whole cell
//               is certainly dense;
//   kReject:    the *expansive neighborhood* E_ij (the smallest centered
//               block of cells containing S_l(p) for every p of the cell)
//               holds < rho*l^2 objects, so no point of the cell can be
//               dense;
//   kCandidate: neither bound decides; the refinement step (plane sweep)
//               must resolve the cell.
//
// Neighborhood sizing (derived from first principles; the OCR'd paper text
// is ambiguous — see DESIGN.md): with cell edge l_c,
//
//   conservative half-width  a = the largest a with (2a+2)*l_c <= l
//     (block width (2a+1)*l_c must fit in l - l_c, the intersection of all
//      l-squares centered in the cell; a < 0 means no accept is possible),
//   expansive half-width     b = the smallest b >= 0 with 2b*l_c >= l
//     (block must cover a square of width l + l_c centered on the cell;
//      the closed top/right edge of S_l needs no extra cell, because an
//      object on the block's outer edge belongs to the next cell).
//
// Both inequalities are decided exactly (an fma sign test), with no
// epsilon: a rounded quotient l/l_c within an ulp of an integer would
// otherwise tip either bound to the unsound side.
//
// Both choices are *sound* — accepts are always dense and rejects never
// dense — so FR's exactness never depends on their tightness. Block sums
// are computed with a 2-D prefix-sum table (SummedAreaTable below, shared
// with the FFT engine; an implementation improvement over the paper's
// per-cell summation; results are identical).

#ifndef PDR_HISTOGRAM_FILTER_H_
#define PDR_HISTOGRAM_FILTER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pdr/common/region.h"
#include "pdr/histogram/density_histogram.h"

namespace pdr {

enum class CellClass : uint8_t { kReject = 0, kCandidate = 1, kAccept = 2 };

struct FilterResult {
  std::vector<CellClass> classes;  ///< m*m, row-major
  int cells_per_side = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t candidates = 0;

  CellClass At(int col, int row) const {
    return classes[static_cast<size_t>(row) * cells_per_side + col];
  }
};

/// One 8-connected component of candidate cells: FR's refinement fetches
/// each with a single range query (DESIGN.md §6, "The grouped fetch").
struct CandidateCluster {
  std::vector<int> cells;  ///< flat row-major indices, ascending
  int col_lo = 0, row_lo = 0, col_hi = 0, row_hi = 0;  ///< cell bounding box

  /// Bounding box of the members' windows CellRect(col, row).Expanded(l/2):
  /// a min/max of those doubles, so it contains every member's window.
  Rect FetchWindow(const Grid& grid, double l) const;
};

/// The 8-connected components of the candidate cells of `filter`, numbered
/// in row-major order of their first cell.
std::vector<CandidateCluster> CandidateClusters(const FilterResult& filter);

/// Inclusive 2-D prefix sums of an m x m row-major image of integer
/// counts: the count of any centered block of cells in four lookups,
/// exact because every sum is an integer.
class SummedAreaTable {
 public:
  template <typename Count>
  SummedAreaTable(const std::vector<Count>& counts, int m)
      : m_(m), sums_(static_cast<size_t>(m + 1) * (m + 1), 0) {
    for (int r = 0; r < m; ++r) {
      int64_t row_sum = 0;
      for (int c = 0; c < m; ++c) {
        row_sum += counts[static_cast<size_t>(r) * m + c];
        sums_[Index(r + 1, c + 1)] = sums_[Index(r, c + 1)] + row_sum;
      }
    }
  }

  /// Sum of the cells within Chebyshev distance `half_width` of
  /// (col, row), clipped at the grid edge; 0 when half_width < 0.
  int64_t BlockSum(int col, int row, int half_width) const {
    return BoxSum(col - half_width, row - half_width, col + half_width,
                  row + half_width);
  }

  /// Sum of the cells in columns [c_lo, c_hi] and rows [r_lo, r_hi],
  /// clipped at the grid edge; 0 when the clipped box is empty.
  int64_t BoxSum(int c_lo, int r_lo, int c_hi, int r_hi) const {
    c_lo = std::max(0, c_lo);
    r_lo = std::max(0, r_lo);
    c_hi = std::min(m_ - 1, c_hi);
    r_hi = std::min(m_ - 1, r_hi);
    if (c_lo > c_hi || r_lo > r_hi) return 0;
    return sums_[Index(r_hi + 1, c_hi + 1)] - sums_[Index(r_lo, c_hi + 1)] -
           sums_[Index(r_hi + 1, c_lo)] + sums_[Index(r_lo, c_lo)];
  }

  /// BlockSum of every cell at one half-width, m x m row-major.
  std::vector<int64_t> BlockSums(int half_width) const;

  /// Sum of every cell.
  int64_t Total() const { return sums_.back(); }

 private:
  size_t Index(int r, int c) const {
    return static_cast<size_t>(r) * (m_ + 1) + c;
  }

  int m_;
  std::vector<int64_t> sums_;
};

/// Number of objects in an l-square needed to meet density threshold rho:
/// the smallest integer >= rho * l^2 (with a tolerance so that thresholds
/// that are exactly integral are not bumped by rounding noise).
int64_t MinObjectsForDensity(double rho, double l);

/// Conservative-block half-width in cells: the largest a with
/// (2a+2)*cell_edge <= l, decided exactly; negative means "cannot accept".
int ConservativeHalfWidth(double l, double cell_edge);

/// Expansive-block half-width in cells: the smallest b >= 0 with
/// 2b*cell_edge >= l, decided exactly.
int ExpansiveHalfWidth(double l, double cell_edge);

/// Runs the filter step for query (rho, l, q_t) against the histogram.
FilterResult FilterCells(const DensityHistogram& dh, Tick q_t, double rho,
                         double l);

/// The filter step against an explicit counter slice (m*m, row-major) —
/// the body of FilterCells, exposed so an MVCC snapshot query can run it
/// over a slice materialized from frozen row versions
/// (src/pdr/mvcc/versioned_histogram.h) with the exact same code path.
FilterResult FilterCellsOverSlice(
    const Grid& grid, const std::vector<DensityHistogram::Counter>& slice,
    double rho, double l);

/// The paper-faithful variant: per-cell neighborhood summation with no
/// prefix-sum table (O(m^2 * b^2) instead of O(m^2)). Classifications are
/// identical to FilterCells; exists so bench_fig9_cpu can report the
/// filter cost the paper's own DH implementation would have had.
FilterResult FilterCellsNaive(const DensityHistogram& dh, Tick q_t,
                              double rho, double l);

/// The region formed by all cells of the given class(es): used for the
/// DH-only baselines of Fig. 8 (optimistic DH = accepts + candidates,
/// pessimistic DH = accepts only).
Region CellsAsRegion(const FilterResult& filter, const Grid& grid,
                     bool include_candidates);

}  // namespace pdr

#endif  // PDR_HISTOGRAM_FILTER_H_
