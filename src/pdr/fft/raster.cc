#include "pdr/fft/raster.h"

namespace pdr {

std::vector<int64_t> RasterizeCounts(const RasterGrid& grid,
                                     const std::vector<Vec2>& positions) {
  const int m = grid.cells_per_side();
  const double extent = grid.extent();
  std::vector<int64_t> counts(static_cast<size_t>(m) * m, 0);
  for (const Vec2& p : positions) {
    if (p.x < 0.0 || p.x > extent || p.y < 0.0 || p.y > extent) continue;
    const int col = grid.ColOf(p.x);
    const int row = grid.RowOf(p.y);
    ++counts[static_cast<size_t>(row) * m + col];
  }
  return counts;
}

}  // namespace pdr
