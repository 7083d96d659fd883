#include "pdr/histogram/filter.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pdr {

std::vector<int64_t> SummedAreaTable::BlockSums(int half_width) const {
  std::vector<int64_t> out(static_cast<size_t>(m_) * m_);
  for (int row = 0; row < m_; ++row) {
    for (int col = 0; col < m_; ++col) {
      out[static_cast<size_t>(row) * m_ + col] = BlockSum(col, row, half_width);
    }
  }
  return out;
}

Rect CandidateCluster::FetchWindow(const Grid& grid, double l) const {
  Rect window = grid.CellRect(cells.front()).Expanded(l / 2);
  for (const int cell : cells) {
    window = window.Union(grid.CellRect(cell).Expanded(l / 2));
  }
  return window;
}

std::vector<CandidateCluster> CandidateClusters(const FilterResult& filter) {
  const int m = filter.cells_per_side;
  std::vector<bool> seen(filter.classes.size(), false);
  std::vector<CandidateCluster> clusters;
  std::vector<int> stack;
  for (int first = 0; first < m * m; ++first) {
    if (seen[first] || filter.classes[first] != CellClass::kCandidate) continue;
    CandidateCluster cluster;
    cluster.col_lo = cluster.col_hi = first % m;
    cluster.row_lo = cluster.row_hi = first / m;
    seen[first] = true;
    stack.push_back(first);
    while (!stack.empty()) {
      const int cell = stack.back();
      stack.pop_back();
      cluster.cells.push_back(cell);
      const int col = cell % m, row = cell / m;
      cluster.col_lo = std::min(cluster.col_lo, col);
      cluster.col_hi = std::max(cluster.col_hi, col);
      cluster.row_lo = std::min(cluster.row_lo, row);
      cluster.row_hi = std::max(cluster.row_hi, row);
      for (int r = std::max(0, row - 1); r <= std::min(m - 1, row + 1); ++r) {
        for (int c = std::max(0, col - 1); c <= std::min(m - 1, col + 1); ++c) {
          const int next = r * m + c;
          if (!seen[next] && filter.classes[next] == CellClass::kCandidate) {
            seen[next] = true;
            stack.push_back(next);
          }
        }
      }
    }
    std::sort(cluster.cells.begin(), cluster.cells.end());
    clusters.push_back(std::move(cluster));
  }
  return clusters;
}

int64_t MinObjectsForDensity(double rho, double l) {
  return static_cast<int64_t>(std::ceil(rho * l * l - 1e-9));
}

namespace {

/// The largest k >= 0 with 2k*l_c <= l, decided exactly. The rounded
/// quotient's floor is never below it (rounding is monotone and k is
/// representable) and exceeds it only where l/(2*l_c) rounds up onto an
/// integer. fma(2k, l_c, -l) rounds the exact value of 2k*l_c - l once,
/// and rounding never flips a sign, so the correction is exact.
int WholeStepsWithin(double l, double cell_edge) {
  int k = std::max(0, static_cast<int>(std::floor(l / (2.0 * cell_edge))));
  while (k > 0 && std::fma(2.0 * k, cell_edge, -l) > 0) --k;
  return k;
}

}  // namespace

int ConservativeHalfWidth(double l, double cell_edge) {
  // Largest a with (2a+1)*l_c <= l - l_c, i.e. (2a+2)*l_c <= l.
  return WholeStepsWithin(l, cell_edge) - 1;
}

int ExpansiveHalfWidth(double l, double cell_edge) {
  // Smallest b >= 0 with 2b*l_c >= l. The block
  // [(col-b)*l_c, (col+b+1)*l_c) must cover every point of every S_l(p),
  // p in the half-open cell: b*l_c >= l/2 on each side. The closed
  // top/right edge of S_l needs no extra cell: an object exactly at
  // coordinate (col+b+1)*l_c is assigned to the next cell, but p < cell_hi
  // implies p + l/2 < cell_hi + l/2 <= (col+b+1)*l_c, so that object is in
  // no S_l(p) anyway.
  const int k = WholeStepsWithin(l, cell_edge);
  return std::fma(2.0 * k, cell_edge, -l) == 0 ? k : k + 1;
}

FilterResult FilterCells(const DensityHistogram& dh, Tick q_t, double rho,
                         double l) {
  return FilterCellsOverSlice(dh.grid(), dh.Slice(q_t), rho, l);
}

FilterResult FilterCellsOverSlice(
    const Grid& grid, const std::vector<DensityHistogram::Counter>& slice,
    double rho, double l) {
  const int m = grid.cells_per_side();
  const int64_t n_min = MinObjectsForDensity(rho, l);
  const int a = ConservativeHalfWidth(l, grid.cell_edge());
  const int b = ExpansiveHalfWidth(l, grid.cell_edge());

  const SummedAreaTable sums(slice, m);

  FilterResult result;
  result.cells_per_side = m;
  result.classes.resize(static_cast<size_t>(m) * m, CellClass::kCandidate);
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < m; ++col) {
      CellClass cls = CellClass::kCandidate;
      if (a >= 0 && sums.BlockSum(col, row, a) >= n_min) {
        cls = CellClass::kAccept;
        ++result.accepted;
      } else if (sums.BlockSum(col, row, b) < n_min) {
        cls = CellClass::kReject;
        ++result.rejected;
      } else {
        ++result.candidates;
      }
      result.classes[static_cast<size_t>(row) * m + col] = cls;
    }
  }
  return result;
}

FilterResult FilterCellsNaive(const DensityHistogram& dh, Tick q_t,
                              double rho, double l) {
  const Grid& grid = dh.grid();
  const int m = grid.cells_per_side();
  const int64_t n_min = MinObjectsForDensity(rho, l);
  const int a = ConservativeHalfWidth(l, grid.cell_edge());
  const int b = ExpansiveHalfWidth(l, grid.cell_edge());
  const auto& slice = dh.Slice(q_t);

  const auto block_sum = [&](int col, int row, int half_width) {
    int64_t sum = 0;
    for (int r = std::max(0, row - half_width);
         r <= std::min(m - 1, row + half_width); ++r) {
      for (int c = std::max(0, col - half_width);
           c <= std::min(m - 1, col + half_width); ++c) {
        sum += slice[static_cast<size_t>(r) * m + c];
      }
    }
    return sum;
  };

  FilterResult result;
  result.cells_per_side = m;
  result.classes.resize(static_cast<size_t>(m) * m, CellClass::kCandidate);
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < m; ++col) {
      CellClass cls = CellClass::kCandidate;
      if (a >= 0 && block_sum(col, row, a) >= n_min) {
        cls = CellClass::kAccept;
        ++result.accepted;
      } else if (block_sum(col, row, b) < n_min) {
        cls = CellClass::kReject;
        ++result.rejected;
      } else {
        ++result.candidates;
      }
      result.classes[static_cast<size_t>(row) * m + col] = cls;
    }
  }
  return result;
}

Region CellsAsRegion(const FilterResult& filter, const Grid& grid,
                     bool include_candidates) {
  assert(filter.cells_per_side == grid.cells_per_side());
  // Each column's vertical runs of included cells are exactly the merged
  // y-union Coalesced would sweep out of the per-cell rects on that
  // column's slab, so stitching them column by column yields the same
  // rects in the same order without the per-cell event sweep.
  const int m = filter.cells_per_side;
  const auto included = [&](int col, int row) {
    const CellClass cls = filter.At(col, row);
    return cls == CellClass::kAccept ||
           (include_candidates && cls == CellClass::kCandidate);
  };
  SlabStitcher stitcher;
  SlabStitcher::Intervals runs;
  bool previous_empty = true;
  for (int col = 0; col < m; ++col) {
    runs.clear();
    for (int row = 0; row < m; ++row) {
      if (!included(col, row)) continue;
      const int start = row;
      while (row + 1 < m && included(col, row + 1)) ++row;
      runs.emplace_back(grid.CellRect(col, start).y_lo,
                        grid.CellRect(col, row).y_hi);
    }
    // An empty column after a non-empty one closes every open rect.
    if (!runs.empty() || !previous_empty) {
      stitcher.Cut(grid.CellRect(col, 0).x_lo, runs);
    }
    previous_empty = runs.empty();
  }
  if (!previous_empty) stitcher.Cut(grid.CellRect(m - 1, 0).x_hi, {});
  return stitcher.Take();
}

}  // namespace pdr
