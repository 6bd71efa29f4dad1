#include "common/quantiles.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace signguard::stats {

namespace {

double median_in_place(std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t n = v.size();
  const std::size_t mid = n / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (n % 2 == 1) return hi;
  // Even size: the other middle element is the max of the lower half.
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lo + hi);
}

}  // namespace

double median(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  return median_in_place(v);
}

double median(std::span<const float> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  return median_in_place(v);
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> v(xs.begin(), xs.end());
  const std::size_t last = v.size() - 1;
  const double pos = q * double(last);
  // Clamp both interpolation indices: at q == 1.0, FP round-off can push
  // ceil(pos) one past the final order statistic.
  const std::size_t lo =
      std::min(static_cast<std::size_t>(std::floor(pos)), last);
  const std::size_t hi =
      std::min(static_cast<std::size_t>(std::ceil(pos)), last);
  // Two selections instead of a full sort: the lo-th order statistic,
  // then (hi == lo + 1 whenever they differ) the minimum of the upper
  // partition — exactly the order statistics the sort produced.
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(lo), v.end());
  const double vlo = v[lo];
  double vhi = vlo;
  if (hi != lo) {
    std::nth_element(v.begin() + std::ptrdiff_t(lo) + 1,
                     v.begin() + std::ptrdiff_t(hi), v.end());
    vhi = v[hi];
  }
  const double frac = pos - double(lo);
  return vlo * (1.0 - frac) + vhi * frac;
}

double mean(std::span<const double> xs) {
  assert(!xs.empty());
  double acc = 0.0;
  for (const double x : xs) acc += x;
  return acc / double(xs.size());
}

double stddev(std::span<const double> xs) {
  const double mu = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / double(xs.size()));
}

}  // namespace signguard::stats
