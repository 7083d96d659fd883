// Plane-sweep refinement (Section 5.3, Algorithms 2 and 3).
//
// Given a candidate cell and the positions of every object that can appear
// in the l-square neighborhood of some point of the cell, the sweep finds
// the exact set of rho-dense points inside the cell as a union of
// half-open rectangles.
//
// An l-band of width l sweeps its vertical center line x across the cell.
// With the paper's half-open square semantics, an object at ox is inside
// the band iff ox - l/2 <= x < ox + l/2, so band membership (and therefore
// point density, Lemma 1) is piecewise constant between the "stopping
// events" {ox +- l/2}. For every maximal strip whose band population can
// meet the threshold, a second sweep runs along Y over the band members
// (Lemma 2), yielding dense segments [y_j, y_{j+1}) and hence dense
// rectangles [x_i, x_{i+1}) x [y_j, y_{j+1}).
//
// Structures. The entry (ox - l/2, oy) and exit (ox + l/2, oy) lists are
// sorted once per cell; the X events are their merge. The band is a sorted
// vector of member y-coordinates (insert at the upper bound, erase one at
// the lower bound), which is the Y-sweep's sorted input as it stands. The
// Y-sweep writes entries oy - l/2 and exits oy + l/2 in band order, sorted
// because rounding is monotone (a <= b implies fl(a - c) <= fl(b - c)),
// merges them into its events (clipped to (y_b, y_t), repeats dropped),
// and counts members with two forward-only cursors. These are the doubles
// and counts sort + unique and upper_bound would give, so the output is
// bit-identical to sorting per strip (DESIGN.md §6). Buffers are local to
// one SweepCell call and reused by all its strips.
//
// Cost. A cell with k nearby objects costs O(k log k) for the two sorts,
// then O(band) per X-strip (one insertion or erasure, plus the Y-sweep when
// the band meets n_min): O(k log k + sum over strips of band).

#ifndef PDR_SWEEP_PLANE_SWEEP_H_
#define PDR_SWEEP_PLANE_SWEEP_H_

#include <cstdint>
#include <vector>

#include "pdr/common/geometry.h"
#include "pdr/resilience/deadline.h"

namespace pdr {

/// Work counters for the sweep (used by benches and tests).
struct SweepStats {
  int64_t x_strips = 0;    ///< strips between consecutive X events
  int64_t y_sweeps = 0;    ///< strips whose band population met n_min
  int64_t y_strips = 0;    ///< Y strips examined across all Y sweeps
  int64_t dense_rects = 0; ///< rectangles emitted

  SweepStats& operator+=(const SweepStats& o) {
    x_strips += o.x_strips;
    y_sweeps += o.y_sweeps;
    y_strips += o.y_strips;
    dense_rects += o.dense_rects;
    return *this;
  }
};

/// Exact dense sub-rectangles of `cell`.
///
/// `positions` must contain (at least) every object position lying in the
/// closed square cell.Expanded(l/2); extra positions are harmless.
/// `n_min` is the object-count threshold (MinObjectsForDensity(rho, l)).
/// The returned rectangles are half-open, disjoint in x-strips, and clipped
/// to `cell`.
///
/// `ctl` (optional) is polled once per X-strip — and inside each Y-sweep
/// per Y-strip — so a deadline-bounded query abandons the sweep within one
/// strip of expiry (CancelledError).
std::vector<Rect> SweepCell(const Rect& cell,
                            const std::vector<Vec2>& positions, double l,
                            int64_t n_min, SweepStats* stats = nullptr,
                            const QueryControl* ctl = nullptr);

/// Y-sweep over one band (Algorithm 3), exposed for testing: given the
/// sorted y-coordinates of the band's members, returns maximal dense
/// segments [y_lo, y_hi) within [y_b, y_t). `ctl` is polled per Y-strip.
std::vector<std::pair<double, double>> SweepY(
    const std::vector<double>& sorted_ys, double y_b, double y_t, double l,
    int64_t n_min, SweepStats* stats = nullptr,
    const QueryControl* ctl = nullptr);

}  // namespace pdr

#endif  // PDR_SWEEP_PLANE_SWEEP_H_
