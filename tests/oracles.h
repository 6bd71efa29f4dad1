#pragma once
// Reference implementations the library kernels are checked against.
// The library has one runtime path per operation; these are the plain
// loops that path must reproduce, kept header-only and outside src/ so
// only the tests and the microbench train/aggregate suite baselines
// include them.
//
//   gemm_nn / gemm_nt / gemm_tn   the per-element triple loop. nn::gemm_*
//                                 must match it bitwise at every shape
//                                 and thread count (test_nn_kernels).
//   ConvOracle                    the 3x3 same-padding convolution as
//                                 per-element loops in the im2col ->
//                                 GEMM -> col2im order: k = (c*3 +
//                                 ky)*3 + kx ascending, padding taps
//                                 reading literal zeros. nn::Conv2d's
//                                 forward and both backwards must match
//                                 it bitwise (test_nn_kernels); the
//                                 microbench train suite times the layer
//                                 against it.
//   maxpool2 / maxpool2_backward  the per-window branchy scan over each
//                                 plane's floor(H/2) x floor(W/2)
//                                 windows: the first strict maximum over
//                                 (0,0), (0,1), (1,0), (1,1) and its
//                                 flat index; the backward adds each
//                                 pooled gradient to +0.0 at that index.
//                                 nn::MaxPool2 must match both bitwise,
//                                 NaNs and signed zeros included
//                                 (test_nn_kernels).
//   pairwise_dist2 / pairwise_dot the direct per-pair loops over vec::dist2
//   pairwise_dist2_packed         and vec::dot, one double accumulator per
//                                 entry. The Gram kernels agree within a
//                                 norm-scaled tolerance and pick the same
//                                 Krum set on separated inputs
//                                 (test_aggregate_scale,
//                                 test_gradient_matrix).
//   median_pairwise_cosine        the per-client scalar similarity proxy
//                                 behind median_pairwise_cosines
//                                 (test_common).
//   coordinate_moments            the per-row loop: one double sum and
//                                 sum of squares per coordinate, rows in
//                                 order. vec::coordinate_moments must
//                                 match it bitwise (test_gradient_matrix).
//   trimmed_mean / median         per-column full sorts under IEEE-754
//   bulyan_coordinate             totalOrder. TrMean, Median and Bulyan
//                                 stage 2 must match them bitwise,
//                                 signed zeros included; a NaN result
//                                 must be NaN on both sides
//                                 (test_aggregate_scale,
//                                 test_failure_injection).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/gradient_matrix.h"
#include "common/parallel.h"
#include "common/quantiles.h"
#include "common/vecops.h"

namespace signguard::oracle {

// ---- GEMM ------------------------------------------------------------------

enum class Trans { kN, kT };

inline float elem(const float* p, std::size_t ld, Trans t, std::size_t row,
                  std::size_t col) {
  // Logical (row, col) of the possibly-transposed operand.
  return t == Trans::kN ? p[row * ld + col] : p[col * ld + row];
}

// Per-element reference: one float accumulator per C[i][j], p strictly
// ascending — the numeric contract every other code path reproduces
// bitwise.
inline void scalar_block(std::size_t i0, std::size_t i1, std::size_t j0,
                         std::size_t j1, std::size_t k, const float* a,
                         std::size_t lda, Trans ta, const float* b,
                         std::size_t ldb, Trans tb, float* c, std::size_t ldc,
                         bool accumulate) {
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t j = j0; j < j1; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p)
        acc += elem(a, lda, ta, i, p) * elem(b, ldb, tb, p, j);
      c[i * ldc + j] = acc;
    }
  }
}

// Same signatures and orientation conventions as nn::gemm_nn/nt/tn.
inline void gemm_nn(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc,
                    bool accumulate) {
  scalar_block(0, m, 0, n, k, a, lda, Trans::kN, b, ldb, Trans::kN, c, ldc,
               accumulate);
}

inline void gemm_nt(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc,
                    bool accumulate) {
  scalar_block(0, m, 0, n, k, a, lda, Trans::kN, b, ldb, Trans::kT, c, ldc,
               accumulate);
}

inline void gemm_tn(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc,
                    bool accumulate) {
  scalar_block(0, m, 0, n, k, a, lda, Trans::kT, b, ldb, Trans::kN, c, ldc,
               accumulate);
}

// ---- 3x3 same-padding convolution ------------------------------------------

// Conv2d with ic input and oc output channels over [h, w] maps, weights
// wt [oc][ic*9] and bias [oc]. Every output element is one float
// accumulator over k = (c*3 + ky)*3 + kx ascending with out-of-range taps
// contributing literal zeros — the per-element sequence of the im2col ->
// GEMM -> col2im lowering.
struct ConvOracle {
  std::size_t ic, oc, h, w;
  const float* wt;
  const float* bias;

  // Tap k of output pixel p: x[c][y + ky - 1][x + kx - 1], or 0.
  float col(const float* x, std::size_t k, std::size_t p) const {
    const std::size_t c = k / 9;
    const std::ptrdiff_t yy = std::ptrdiff_t(p / w + (k % 9) / 3) - 1;
    const std::ptrdiff_t xx = std::ptrdiff_t(p % w + k % 3) - 1;
    if (yy < 0 || yy >= std::ptrdiff_t(h) || xx < 0 ||
        xx >= std::ptrdiff_t(w))
      return 0.0f;
    return x[(c * h + std::size_t(yy)) * w + std::size_t(xx)];
  }

  // y[oc][p] for one sample: the product from +0.0f, then the bias.
  void forward(const float* x, float* y) const {
    const std::size_t kk = ic * 9, hw = h * w;
    for (std::size_t o = 0; o < oc; ++o)
      for (std::size_t p = 0; p < hw; ++p) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < kk; ++k)
          acc += wt[o * kk + k] * col(x, k, p);
        y[o * hw + p] = acc + bias[o];
      }
  }

  // One batch's backward, samples in order: gb and gw accumulate onto
  // their values (gb[o] += pixels ascending; gw[o][k] += gy[o][p] *
  // tap, p ascending), and gx, unless null, gets each sample's input
  // gradient: per element, +0.0f plus every in-range tap's column
  // gradient (sum of W[o][k] * gy[o][p], o ascending from +0.0f) in k
  // order.
  void backward(const float* x, const float* gy, std::size_t batch,
                float* gw, float* gb, float* gx) const {
    const std::size_t kk = ic * 9, hw = h * w;
    for (std::size_t b = 0; b < batch; ++b, x += ic * hw, gy += oc * hw) {
      for (std::size_t o = 0; o < oc; ++o) {
        float acc = gb[o];
        for (std::size_t p = 0; p < hw; ++p) acc += gy[o * hw + p];
        gb[o] = acc;
      }
      for (std::size_t o = 0; o < oc; ++o)
        for (std::size_t k = 0; k < kk; ++k) {
          float acc = gw[o * kk + k];
          for (std::size_t p = 0; p < hw; ++p)
            acc += gy[o * hw + p] * col(x, k, p);
          gw[o * kk + k] = acc;
        }
      if (gx == nullptr) continue;
      float* gxb = gx + b * ic * hw;
      std::fill_n(gxb, ic * hw, 0.0f);
      for (std::size_t k = 0; k < kk; ++k)
        for (std::size_t p = 0; p < hw; ++p) {
          const std::ptrdiff_t yy = std::ptrdiff_t(p / w + (k % 9) / 3) - 1;
          const std::ptrdiff_t xx = std::ptrdiff_t(p % w + k % 3) - 1;
          if (yy < 0 || yy >= std::ptrdiff_t(h) || xx < 0 ||
              xx >= std::ptrdiff_t(w))
            continue;
          float acc = 0.0f;
          for (std::size_t o = 0; o < oc; ++o)
            acc += wt[o * kk + k] * gy[o * hw + p];
          gxb[(k / 9 * h + std::size_t(yy)) * w + std::size_t(xx)] += acc;
        }
    }
  }
};

// ---- 2x2 max pooling -------------------------------------------------------

// MaxPool2's forward over `planes` [H, W] maps, one output per 2x2
// window of the floor(H/2) x floor(W/2) grid (an odd last row or column
// is never read): the window's first value, replaced by each later one
// only if strictly greater, so ties keep the earlier slot and a NaN
// after the first slot is skipped. `argmax` gets the flat input index
// of the kept slot.
inline void maxpool2(const float* x, std::size_t planes, std::size_t h,
                     std::size_t w, float* y, std::size_t* argmax) {
  const std::size_t oh = h / 2, ow = w / 2;
  for (std::size_t bc = 0; bc < planes; ++bc) {
    const float* xp = x + bc * h * w;
    float* yp = y + bc * oh * ow;
    std::size_t* ap = argmax + bc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        std::size_t best = (2 * oy) * w + 2 * ox;
        float best_v = xp[best];
        const std::size_t cands[3] = {(2 * oy) * w + 2 * ox + 1,
                                      (2 * oy + 1) * w + 2 * ox,
                                      (2 * oy + 1) * w + 2 * ox + 1};
        for (const std::size_t c : cands) {
          if (xp[c] > best_v) {
            best_v = xp[c];
            best = c;
          }
        }
        yp[oy * ow + ox] = best_v;
        ap[oy * ow + ox] = bc * h * w + best;
      }
    }
  }
}

// MaxPool2's backward: a zeroed input gradient, then each pooled
// gradient added at its argmax — 0.0f + g, so a -0.0 lands as +0.0.
inline void maxpool2_backward(const float* gy, const std::size_t* argmax,
                              std::size_t n_out, float* gx,
                              std::size_t n_in) {
  std::fill_n(gx, n_in, 0.0f);
  for (std::size_t i = 0; i < n_out; ++i) gx[argmax[i]] += gy[i];
}

// ---- pairwise geometry -----------------------------------------------------

// The upper-triangle pair list, parallelized pair by pair so work stays
// balanced when n is small and d is huge. Each entry is produced by one
// pair, so the result is thread-count-invariant.
inline std::vector<std::pair<std::size_t, std::size_t>> upper_pairs(
    std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  return pairs;
}

template <typename Kernel>
std::vector<double> pairwise_block(const common::GradientMatrix& g,
                                   Kernel&& kernel, bool self_dot) {
  const std::size_t n = g.rows();
  std::vector<double> out(n * n, 0.0);
  const auto pairs = upper_pairs(n);
  common::parallel_for(pairs.size(), [&](std::size_t p) {
    const auto [i, j] = pairs[p];
    const double v = kernel(g.row(i), g.row(j));
    out[i * n + j] = v;
    out[j * n + i] = v;
  });
  if (self_dot)
    common::parallel_for(n, [&](std::size_t i) {
      out[i * n + i] = vec::dot(g.row(i), g.row(i));
    });
  return out;
}

inline std::vector<double> pairwise_dist2(const common::GradientMatrix& g) {
  return pairwise_block(g, vec::dist2, /*self_dot=*/false);
}

inline std::vector<double> pairwise_dot(const common::GradientMatrix& g) {
  return pairwise_block(g, vec::dot, /*self_dot=*/true);
}

// Packed upper triangle, vec::pairwise_dist2_packed's layout.
inline std::vector<double> pairwise_dist2_packed(
    const common::GradientMatrix& g) {
  const std::size_t n = g.rows();
  if (n < 2) return {};
  std::vector<double> out(n * (n - 1) / 2, 0.0);
  const auto pairs = upper_pairs(n);
  common::parallel_for(pairs.size(), [&](std::size_t p) {
    const auto [i, j] = pairs[p];
    out[i * (2 * n - i - 1) / 2 + j - i - 1] = vec::dist2(g.row(i), g.row(j));
  });
  return out;
}

// ---- similarity proxy ------------------------------------------------------

// Median of cos(g_self, g_j) over every row j != self — one client's
// entry of median_pairwise_cosines, computed by n - 1 scalar scans.
inline double median_pairwise_cosine(const common::GradientMatrix& grads,
                                     std::size_t self) {
  std::vector<double> sims;
  for (std::size_t j = 0; j < grads.rows(); ++j)
    if (j != self) sims.push_back(vec::cosine(grads.row(self), grads.row(j)));
  return stats::median(sims);
}

// ---- column moments --------------------------------------------------------

// Whole-row passes: every row adds v and v*v to its coordinate's two
// doubles; mean = sum/n, var = max(0, sum_sq/n - mean^2), both rounded
// to float.
inline vec::CoordinateMoments coordinate_moments(
    const common::GradientMatrix& g) {
  const std::size_t d = g.cols();
  const double n = double(g.rows());
  std::vector<double> sum(d, 0.0), sum_sq(d, 0.0);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    const auto row = g.row(i);
    for (std::size_t j = 0; j < d; ++j) {
      const double v = double(row[j]);
      sum[j] += v;
      sum_sq[j] += v * v;
    }
  }
  vec::CoordinateMoments m;
  m.mean.resize(d);
  m.stddev.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    const double mu = sum[j] / n;
    m.mean[j] = static_cast<float>(mu);
    m.stddev[j] =
        static_cast<float>(std::sqrt(std::max(0.0, sum_sq[j] / n - mu * mu)));
  }
  return m;
}

// ---- coordinate-wise rules -------------------------------------------------

// IEEE-754 totalOrder: -NaN < -inf < ... < -0.0 < +0.0 < ... < +inf <
// +NaN. Sign-magnitude bits: negatives order by descending magnitude.
inline bool total_order_less(float a, float b) {
  const auto x = std::bit_cast<std::int32_t>(a);
  const auto y = std::bit_cast<std::int32_t>(b);
  if ((x < 0) != (y < 0)) return x < 0;
  return x < 0 ? x > y : x < y;
}

// Coordinate j of every row, sorted ascending under totalOrder.
inline std::vector<float> sorted_column(const common::GradientMatrix& g,
                                        std::size_t j) {
  std::vector<float> column(g.rows());
  for (std::size_t i = 0; i < g.rows(); ++i) column[i] = g.at(i, j);
  std::sort(column.begin(), column.end(), total_order_less);
  return column;
}

// Per column: ranks [trim, n - trim) summed in ascending order into one
// double, divided by the kept count.
inline std::vector<float> trimmed_mean(const common::GradientMatrix& g,
                                       std::size_t trim) {
  const std::size_t n = g.rows();
  std::vector<float> out(g.cols());
  for (std::size_t j = 0; j < g.cols(); ++j) {
    const auto column = sorted_column(g, j);
    double acc = 0.0;
    for (std::size_t r = trim; r < n - trim; ++r) acc += double(column[r]);
    out[j] = static_cast<float>(acc / double(n - 2 * trim));
  }
  return out;
}

// Per column: rank n/2, or 0.5f * (rank n/2 - 1 + rank n/2) for even n.
inline std::vector<float> median(const common::GradientMatrix& g) {
  const std::size_t n = g.rows(), mid = n / 2;
  std::vector<float> out(g.cols());
  for (std::size_t j = 0; j < g.cols(); ++j) {
    const auto column = sorted_column(g, j);
    out[j] = n % 2 == 1 ? column[mid]
                        : 0.5f * (column[mid - 1] + column[mid]);
  }
  return out;
}

// Bulyan stage 2 on one coordinate of the selected rows: the median (in
// double) of the totalOrder-sorted column, then a stable sort by
// distance |x - med| — ties keep the lower value first — and the mean of
// the first beta values in that order.
inline float bulyan_coordinate(std::vector<float> column, std::size_t beta) {
  std::sort(column.begin(), column.end(), total_order_less);
  const std::size_t n = column.size(), mid = n / 2;
  const double med =
      n % 2 == 1 ? double(column[mid])
                 : 0.5 * (double(column[mid - 1]) + double(column[mid]));
  std::stable_sort(column.begin(), column.end(), [med](float a, float b) {
    return std::abs(double(a) - med) < std::abs(double(b) - med);
  });
  double acc = 0.0;
  for (std::size_t i = 0; i < beta; ++i) acc += double(column[i]);
  return static_cast<float>(acc / double(beta));
}

}  // namespace signguard::oracle
