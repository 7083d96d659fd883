#include "pdr/cheb/cheb2d.h"

#include <cassert>
#include <cmath>

namespace pdr {

Cheb2D::Cheb2D(int degree) : degree_(degree) {
  assert(degree >= 0 && degree <= kChebMaxDegree);
  coeffs_.assign(static_cast<size_t>(degree_ + 1) * (degree_ + 2) / 2, 0.0);
}

size_t Cheb2D::IndexOf(int i, int j) const {
  assert(i >= 0 && j >= 0 && i + j <= degree_);
  return static_cast<size_t>(i) * (2 * degree_ + 3 - i) / 2 +
         static_cast<size_t>(j);
}

double Cheb2D::Eval(double x, double y) const {
  // T tables via the recurrence.
  double tx[kChebMaxDegree + 1], ty[kChebMaxDegree + 1];
  ChebTAll(degree_, x, tx);
  ChebTAll(degree_, y, ty);
  const double* a = coeffs_.data();
  double sum = 0.0;
  for (int i = 0; i <= degree_; ++i) {
    double row = 0.0;
    for (int j = 0; j <= degree_ - i; ++j) row += *a++ * ty[j];
    sum += row * tx[i];
  }
  return sum;
}

Interval Cheb2D::Bound(double x1, double x2, double y1, double y2) const {
  double tx1[kChebMaxDegree + 1], tx2[kChebMaxDegree + 1];
  double ty1[kChebMaxDegree + 1], ty2[kChebMaxDegree + 1];
  ChebTEdge(degree_, x1, tx1);
  ChebTEdge(degree_, x2, tx2);
  ChebTEdge(degree_, y1, ty1);
  ChebTEdge(degree_, y2, ty2);
  return BoundFromEdges(x1, x2, y1, y2, tx1, tx2, ty1, ty2);
}

Interval Cheb2D::BoundFromEdges(double x1, double x2, double y1, double y2,
                                const double* tx1, const double* tx2,
                                const double* ty1, const double* ty2) const {
  Interval ranges_x[kChebMaxDegree + 1], ranges_y[kChebMaxDegree + 1];
  ChebTRanges(degree_, x1, x2, tx1, tx2, ranges_x);
  ChebTRanges(degree_, y1, y2, ty1, ty2, ranges_y);
  const double* a = coeffs_.data();
  Interval total{0.0, 0.0};
  for (int i = 0; i <= degree_; ++i) {
    for (int j = 0; j <= degree_ - i; ++j, ++a) {
      if (*a == 0.0) continue;
      total += (ranges_x[i] * ranges_y[j]) * *a;
    }
  }
  return total;
}

void Cheb2D::AddIndicator(double x1, double x2, double y1, double y2,
                          double height) {
  assert(x1 <= x2 && y1 <= y2);
  double ax[kChebMaxDegree + 1], ay[kChebMaxDegree + 1];
  ChebWeightedIntegralAll(degree_, x1, x2, ax);
  ChebWeightedIntegralAll(degree_, y1, y2, ay);
  const double scale = height / (M_PI * M_PI);
  double* a = coeffs_.data();
  for (int i = 0; i <= degree_; ++i) {
    const double ci = (i == 0) ? 1.0 : 2.0;
    for (int j = 0; j <= degree_ - i; ++j) {
      const double cj = (j == 0) ? 1.0 : 2.0;
      *a++ += ci * cj * scale * ax[i] * ay[j];
    }
  }
}

void Cheb2D::Reset() { coeffs_.assign(coeffs_.size(), 0.0); }

bool Cheb2D::IsZero() const {
  for (double c : coeffs_) {
    if (c != 0.0) return false;
  }
  return true;
}

}  // namespace pdr
