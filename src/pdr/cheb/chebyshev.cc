#include "pdr/cheb/chebyshev.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pdr {

namespace {

// The interior extrema of T_k lie at cos(j*pi/k), value (-1)^j. Kept out
// of interprocedural constant propagation so the table holds what the
// libm call returns at run time, not a compile-time folded cosine.
[[gnu::noipa]] double InteriorExtremum(int j, int k) {
  return std::cos(j * M_PI / k);
}

// x[k][j] = InteriorExtremum(j, k) for 1 <= j < k <= kChebMaxDegree.
struct ExtremaTable {
  double x[kChebMaxDegree + 1][kChebMaxDegree + 1] = {};
  ExtremaTable() {
    for (int k = 1; k <= kChebMaxDegree; ++k) {
      for (int j = 1; j < k; ++j) x[k][j] = InteriorExtremum(j, k);
    }
  }
};

// Built on first use, so no static initializer elsewhere can read it
// unfilled.
const ExtremaTable& Extrema() {
  static const ExtremaTable table;
  return table;
}

// The one per-order range routine: the endpoint values a = T_k(z1),
// b = T_k(z2), widened to -1 / +1 by any interior extremum xk[j] of T_k
// in [z1, z2].
Interval RangeOfOrder(const double* xk, int k, double z1, double z2,
                      double a, double b) {
  if (k == 0) return {1.0, 1.0};
  Interval range{std::min(a, b), std::max(a, b)};
  for (int j = 1; j < k; ++j) {
    if (xk[j] >= z1 && xk[j] <= z2) {
      if (j % 2 == 1) {
        range.lo = -1.0;
      } else {
        range.hi = 1.0;
      }
    }
    if (range.lo == -1.0 && range.hi == 1.0) break;
  }
  return range;
}

}  // namespace

double ChebT(int k, double x) {
  const double xc = std::clamp(x, -1.0, 1.0);
  return std::cos(k * std::acos(xc));
}

void ChebTAll(int degree, double x, double* out) {
  out[0] = 1.0;
  if (degree == 0) return;
  out[1] = x;
  for (int k = 2; k <= degree; ++k) {
    out[k] = 2.0 * x * out[k - 1] - out[k - 2];
  }
}

void ChebTEdge(int degree, double z, double* out) {
  const double t = std::acos(std::clamp(z, -1.0, 1.0));
  for (int k = 0; k <= degree; ++k) out[k] = std::cos(k * t);
}

Interval ChebTRange(int k, double z1, double z2) {
  assert(z1 <= z2 && k >= 0 && k <= kChebMaxDegree);
  return RangeOfOrder(Extrema().x[k], k, z1, z2, ChebT(k, z1), ChebT(k, z2));
}

void ChebTRanges(int degree, double z1, double z2, const double* t1,
                 const double* t2, Interval* out) {
  assert(z1 <= z2 && degree >= 0 && degree <= kChebMaxDegree);
  const ExtremaTable& extrema = Extrema();
  for (int k = 0; k <= degree; ++k) {
    out[k] = RangeOfOrder(extrema.x[k], k, z1, z2, t1[k], t2[k]);
  }
}

double ChebWeightedIntegral(int i, double z1, double z2) {
  const double t1 = std::acos(std::clamp(z1, -1.0, 1.0));
  const double t2 = std::acos(std::clamp(z2, -1.0, 1.0));
  if (i == 0) return t1 - t2;
  return (std::sin(i * t1) - std::sin(i * t2)) / i;
}

void ChebWeightedIntegralAll(int degree, double z1, double z2, double* out) {
  const double t1 = std::acos(std::clamp(z1, -1.0, 1.0));
  const double t2 = std::acos(std::clamp(z2, -1.0, 1.0));
  out[0] = t1 - t2;
  if (degree == 0) return;
  // sin(i*t) via the multiple-angle recurrence seeded with sin/cos once.
  const double c1 = 2.0 * std::cos(t1), c2 = 2.0 * std::cos(t2);
  double s1_prev = 0.0, s1 = std::sin(t1);
  double s2_prev = 0.0, s2 = std::sin(t2);
  out[1] = s1 - s2;
  for (int i = 2; i <= degree; ++i) {
    const double s1_next = c1 * s1 - s1_prev;
    const double s2_next = c2 * s2 - s2_prev;
    s1_prev = s1;
    s1 = s1_next;
    s2_prev = s2;
    s2 = s2_next;
    out[i] = (s1 - s2) / i;
  }
}

}  // namespace pdr
