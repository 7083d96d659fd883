// Chebyshev polynomial primitives (Section 6.1 of the paper).
//
// T_k(x) = cos(k * arccos(x)) on [-1, 1]. The PA method needs three
// operations beyond plain evaluation:
//
//  * the weighted integral A_i(z1, z2) = Int_{z1}^{z2} T_i(x)/sqrt(1-x^2) dx
//    in closed form (Lemma 4), which turns an object's l-square indicator
//    into coefficient deltas in O(1) per coefficient;
//  * tight lower/upper bounds of T_k over a subinterval (Section 6.3),
//    which drive the branch-and-bound dense-region search: the extrema of
//    T_k are +-1 at cos(j*pi/k), so the bound over [z1, z2] is the min/max
//    of the endpoint values and of the interior extrema that fall inside.

#ifndef PDR_CHEB_CHEBYSHEV_H_
#define PDR_CHEB_CHEBYSHEV_H_

#include <algorithm>
#include <vector>

namespace pdr {

/// Highest polynomial degree the fixed-size per-order tables (T values,
/// weighted integrals, ranges, interior extrema) hold; PaEngine and
/// ChebGrid reject a larger degree at construction.
inline constexpr int kChebMaxDegree = 15;

/// A closed interval [lo, hi] used for range bounds.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double v) const { return lo <= v && v <= hi; }

  /// Interval product {a*b : a in this, b in o}.
  Interval operator*(const Interval& o) const {
    const double a = lo * o.lo, b = lo * o.hi, c = hi * o.lo, d = hi * o.hi;
    return {std::min(std::min(a, b), std::min(c, d)),
            std::max(std::max(a, b), std::max(c, d))};
  }
  /// Interval scaled by a (possibly negative) constant.
  Interval operator*(double s) const {
    return s >= 0 ? Interval{lo * s, hi * s} : Interval{hi * s, lo * s};
  }
  Interval operator+(const Interval& o) const {
    return {lo + o.lo, hi + o.hi};
  }
  Interval& operator+=(const Interval& o) {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
};

/// T_k(x) for x in [-1, 1] (input clamped for boundary-rounding safety).
double ChebT(int k, double x);

/// Fills `out[0..degree]` with T_0(x)..T_degree(x) via the three-term
/// recurrence (one pass, no trigonometry).
void ChebTAll(int degree, double x, double* out);

/// Fills `out[0..degree]` with ChebT(k, z) for every order, bit for bit:
/// the same cos(k * arccos(z)) expression, with the arccos taken once.
/// These are the edge values ChebTRanges consumes.
void ChebTEdge(int degree, double z, double* out);

/// Tight range of T_k over [z1, z2] (subinterval of [-1, 1]),
/// 0 <= k <= kChebMaxDegree.
Interval ChebTRange(int k, double z1, double z2);

/// out[k] = ChebTRange(k, z1, z2) for k = 0..degree, from the edge values
/// t1 = ChebTEdge(z1) and t2 = ChebTEdge(z2). ChebTRange and this share
/// one per-order routine, so a caller that already holds the edge values
/// (the branch-and-bound, which carries them down its splits) gets the
/// bit-identical ranges without trigonometry.
void ChebTRanges(int degree, double z1, double z2, const double* t1,
                 const double* t2, Interval* out);

/// Closed-form A_i(z1, z2) = Int_{z1}^{z2} T_i(x) / sqrt(1 - x^2) dx:
///   i = 0:  arccos(z1) - arccos(z2)
///   i > 0:  (sin(i*arccos(z1)) - sin(i*arccos(z2))) / i
double ChebWeightedIntegral(int i, double z1, double z2);

/// Fills out[0..degree] with A_i(z1, z2) for all orders at once, using two
/// arccos calls and the sin-multiple recurrence
/// sin((i+1)t) = 2 cos(t) sin(it) - sin((i-1)t) instead of per-order
/// trigonometry. This is the fast path for coefficient updates (the
/// object insert/delete cost of Fig. 9b).
void ChebWeightedIntegralAll(int degree, double z1, double z2, double* out);

}  // namespace pdr

#endif  // PDR_CHEB_CHEBYSHEV_H_
