// The PA method's density model (Sections 6.2-6.4): for every tick of the
// horizon, a g x g grid of local Chebyshev expansions approximates the
// point-density field d_t(x, y) in world units (objects per square mile).
//
// Updates: an object whose reported motion predicts position p_t raises
// the density by 1/l^2 over the l-square centered at p_t (it belongs to
// the l-neighborhood of exactly those points). The square is clipped to
// the domain, intersected with each overlapping macro-cell, mapped to the
// cell's local [-1,1]^2 frame, and added to that cell's expansion in
// closed form. Deletes subtract the same quantity, so the model is exactly
// the sum of the live objects' bumps (plus truncation error only).
//
// Queries: per macro-cell branch-and-bound (Section 6.3). A subregion
// whose expansion lower bound is >= rho is wholly dense; one whose upper
// bound is < rho is pruned; otherwise it is quartered until its edge is
// below the evaluation resolution, then decided by its center point.
// QueryDenseGridScan implements the paper's "trivial approach" (evaluate a
// fixed m_d x m_d grid) for the ablation bench.
//
// Unlike the FR structures, the PA model fixes the neighborhood edge l at
// construction (Section 6: "the approximated method assumes that l is
// predetermined").

#ifndef PDR_CHEB_CHEB_GRID_H_
#define PDR_CHEB_CHEB_GRID_H_

#include <cstdint>
#include <vector>

#include "pdr/cheb/cheb2d.h"
#include "pdr/common/geometry.h"
#include "pdr/common/region.h"
#include "pdr/mobility/object.h"
#include "pdr/resilience/deadline.h"

namespace pdr {

class ThreadPool;

/// Work counters for the branch-and-bound search.
struct BnbStats {
  int64_t nodes_visited = 0;
  int64_t accepted_boxes = 0;
  int64_t pruned_boxes = 0;
  int64_t point_evals = 0;

  BnbStats& operator+=(const BnbStats& o) {
    nodes_visited += o.nodes_visited;
    accepted_boxes += o.accepted_boxes;
    pruned_boxes += o.pruned_boxes;
    point_evals += o.point_evals;
    return *this;
  }
};

class ChebGrid {
 public:
  struct Options {
    double extent = 1000.0;  ///< domain edge (miles)
    int grid_side = 10;      ///< g: number of macro-cells per side
    int degree = 5;          ///< k: polynomial degree
    Tick horizon = 120;      ///< H = U + W
    double l = 30.0;         ///< fixed l-square edge
  };

  /// Throws std::invalid_argument unless 0 <= degree <= kChebMaxDegree,
  /// grid_side >= 1, l > 0 and horizon >= 0.
  explicit ChebGrid(const Options& options);

  const Options& options() const { return options_; }
  const Grid& macro_grid() const { return grid_; }

  /// Moves the logical clock, recycling expired slices.
  void AdvanceTo(Tick now);
  Tick now() const { return now_; }

  /// Applies one update event received at `update.tick` (== now()).
  void Apply(const UpdateEvent& update);

  /// Approximated density at point `p`, tick `t` in [now, now + H].
  double Density(Tick t, Vec2 p) const;

  /// All regions with approximated density >= rho at tick t, found by
  /// branch-and-bound with leaf resolution extent/eval_grid. With a
  /// non-null `pool`, the per-macro-cell searches fan out over its
  /// threads; per-cell regions are merged in cell order, so the result is
  /// bit-identical to the serial search. `ctl` (optional) is polled at
  /// every branch-and-bound node, so a deadline-bounded query abandons the
  /// search within one node expansion of expiry (CancelledError).
  Region QueryDense(Tick t, double rho, int eval_grid,
                    BnbStats* stats = nullptr, ThreadPool* pool = nullptr,
                    const QueryControl* ctl = nullptr) const;

  /// The paper's "trivial approach": evaluate the density at the centers
  /// of an eval_grid x eval_grid lattice and report dense lattice cells.
  Region QueryDenseGridScan(Tick t, double rho, int eval_grid,
                            BnbStats* stats = nullptr) const;

  /// Number of coefficients in one tick slice (g^2 * (k+1)(k+2)/2).
  size_t CoefficientsPerSlice() const;

  /// Coefficient storage for the whole horizon, in the paper's deployment
  /// representation (float32 per coefficient); Fig. 8(c,d) x-axis.
  size_t ModelBytes() const {
    return (options_.horizon + 1) * CoefficientsPerSlice() * sizeof(float);
  }

  /// Direct slice access for tests (cell index = row * g + col).
  const Cheb2D& CellPoly(Tick t, int cell) const;

 private:
  int SlotOf(Tick t) const {
    return static_cast<int>(t % static_cast<Tick>(slices_.size()));
  }
  void AddSquare(Tick t, Vec2 center, double height);
  const std::vector<Cheb2D>& Slice(Tick t) const;

  Options options_;
  Grid grid_;
  Tick now_ = 0;
  std::vector<std::vector<Cheb2D>> slices_;  // (H+1) x g^2 expansions
  std::vector<Tick> slot_tick_;
};

}  // namespace pdr

#endif  // PDR_CHEB_CHEB_GRID_H_
