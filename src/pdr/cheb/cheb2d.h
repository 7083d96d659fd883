// Truncated 2-D Chebyshev expansion over [-1, 1]^2 (Section 6.1-6.2).
//
//   f^(x, y) = sum_{0 <= i + j <= k} a_ij T_i(x) T_j(y)
//
// with the triangular truncation i + j <= k the paper uses, giving
// (k+1)(k+2)/2 coefficients. Coefficient updates are *incremental*
// (Lemma 3): adding an indicator-function bump to the approximated field
// adds its closed-form coefficients (Lemma 4) to a_ij, so object inserts
// and deletes are O(k^2) each with no re-fitting.

#ifndef PDR_CHEB_CHEB2D_H_
#define PDR_CHEB_CHEB2D_H_

#include <cstddef>
#include <vector>

#include "pdr/cheb/chebyshev.h"

namespace pdr {

class Cheb2D {
 public:
  /// Expansion of degree `degree` (terms with i + j <= degree).
  explicit Cheb2D(int degree);

  int degree() const { return degree_; }

  /// Number of stored coefficients: (k+1)(k+2)/2.
  size_t coefficient_count() const { return coeffs_.size(); }

  /// Coefficient a_ij (i + j <= degree).
  double coeff(int i, int j) const { return coeffs_[IndexOf(i, j)]; }
  double& coeff(int i, int j) { return coeffs_[IndexOf(i, j)]; }

  /// Evaluates the expansion at (x, y) in [-1, 1]^2.
  double Eval(double x, double y) const;

  /// Tight-ish range bound of the expansion over the box
  /// [x1, x2] x [y1, y2] (subset of [-1, 1]^2): the sum of per-term
  /// interval products using exact T_k ranges.
  Interval Bound(double x1, double x2, double y1, double y2) const;

  /// Bound() from T_0..T_degree already evaluated at the four box edges
  /// (ChebTEdge at x1, x2, y1, y2), bit-identical to Bound(). The
  /// branch-and-bound carries these down its splits, evaluating only the
  /// new midpoint edges.
  Interval BoundFromEdges(double x1, double x2, double y1, double y2,
                          const double* tx1, const double* tx2,
                          const double* ty1, const double* ty2) const;

  /// Adds `height * indicator([x1,x2] x [y1,y2])` to the approximated
  /// function, in closed form:
  ///   a_ij += c_ij/pi^2 * height * A_i(x1, x2) * A_j(y1, y2)
  /// with c_ij = (2 - [i==0]) * (2 - [j==0]) (Theorem 1 / Lemma 4).
  void AddIndicator(double x1, double x2, double y1, double y2,
                    double height);

  /// Sets every coefficient to zero.
  void Reset();

  /// True when all coefficients are exactly zero.
  bool IsZero() const;

  /// Raw coefficient storage (triangular, row i then j).
  const std::vector<double>& raw() const { return coeffs_; }

 private:
  size_t IndexOf(int i, int j) const;

  int degree_;
  // Row-major triangular layout: row i holds j = 0..degree-i and starts at
  // i*(degree+1) - i*(i-1)/2; loops walk it with one running index.
  std::vector<double> coeffs_;
};

}  // namespace pdr

#endif  // PDR_CHEB_CHEB2D_H_
