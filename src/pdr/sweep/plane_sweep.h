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
// Structures. The positions are sorted once by x and once by y. Rounding
// is monotone (a <= b implies fl(a - c) <= fl(b - c)), so x order is the
// order of both the entries ox - l/2 and the exits ox + l/2; the X events
// are their merge (clipped to (x_lo, x_hi), repeats dropped). The Y side
// is one boundary table per cell, built the same way from y order: y_lo,
// every entry oy - l/2 and exit oy + l/2 strictly inside (y_lo, y_hi), and
// y_hi, E + 1 boundaries for E strips. Each object's y-interval becomes two
// indices into it, the first boundary >= its entry and the first >= its
// exit (both capped at E), found by one forward walk. The band lives on
// the table: a count delta per boundary (+1 at the entry index and -1 at
// the exit index of every member), a member count per interior boundary
// with one occupancy bit per boundary, set while that count is nonzero,
// and the band size. An object entering or leaving the band is O(1).
// A Y-sweep visits boundary 0, then the occupied boundaries
// in increasing order by a 64-bit word scan, accumulating the deltas. The
// count changes only there, and those boundaries are exactly the events
// the band's own entries and exits give, so the runs, their doubles and
// y_strips (1 + occupied boundaries) are what sorting the band's events
// for every strip gives (DESIGN.md §6). Buffers are local to one
// SweepCell call.
//
// Cost. A cell with k nearby objects costs O(k log k) for the two sorts
// and the table, O(1) per object entering or leaving the band, and
// O(E/64 + b) per Y-sweep over a band with b distinct interior boundaries:
// O(k log k + sum over Y-sweeps of (E/64 + b)).

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
/// `ctl` (optional) is polled once per X-strip, before its Y-sweep, so a
/// deadline-bounded query abandons the sweep within one strip of expiry
/// (CancelledError); a Y-sweep is a bit scan and is not polled inside.
std::vector<Rect> SweepCell(const Rect& cell,
                            const std::vector<Vec2>& positions, double l,
                            int64_t n_min, SweepStats* stats = nullptr,
                            const QueryControl* ctl = nullptr);

/// Folds repeated X-strips of SweepCell's output in place, for the merge
/// that follows. In that output consecutive rects with equal x_lo form one
/// X-strip, its runs in increasing y. A strip folds into the previous kept
/// strip when the kept strip's x_hi equals its x_lo and the two have the
/// same (y_lo, y_hi) list: the kept rects' x_hi becomes this strip's and
/// its own rects go. The result covers the same point set with fewer
/// rects, so Region::Coalesced, canonical per point set, returns the same
/// rects for it bit for bit. Strips with a gap between them or different
/// run lists stay apart. Cost O(rects).
void FoldRepeatedStrips(std::vector<Rect>* rects);

/// Y-sweep over one band (Algorithm 3), exposed for testing: given the
/// sorted y-coordinates of the band's members, returns maximal dense
/// segments [y_lo, y_hi) within [y_b, y_t). It is one X-strip of
/// SweepCell's kernel with every given y in the band; `stats` gains only
/// y_strips, and `ctl` is polled once, before the sweep.
std::vector<std::pair<double, double>> SweepY(
    const std::vector<double>& sorted_ys, double y_b, double y_t, double l,
    int64_t n_min, SweepStats* stats = nullptr,
    const QueryControl* ctl = nullptr);

}  // namespace pdr

#endif  // PDR_SWEEP_PLANE_SWEEP_H_
