#pragma once
// Reference implementations the library kernels are checked against.
// The library has one runtime path per operation; these are the plain
// loops that path must reproduce, kept header-only and outside src/ so
// only the tests and the train/aggregate microbench baselines include
// them.
//
//   gemm_nn / gemm_nt / gemm_tn   the per-element triple loop. nn::gemm_*
//                                 must match it bitwise at every shape
//                                 and thread count (test_nn_kernels).
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

#include <cstddef>
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

}  // namespace signguard::oracle
