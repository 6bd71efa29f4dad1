#pragma once
// Single-precision GEMM kernels behind the NN layers (Linear, im2col
// Conv2d, per-timestep RNN matmuls), plus the small broadcast/reduction
// helpers those layers need. All matrices are row-major with explicit
// leading dimensions, so strided views (a timestep slice of a [B, T, E]
// tensor, a sample block of a packed im2col buffer) feed the kernels
// directly — no col-major conversion, no staging copies.
//
// Numeric contract: for every output element C[i][j], the kernels
// accumulate a_ip * b_pj over p = 0..k-1 strictly in order, in float, into
// a single accumulator (initialized from C[i][j] when accumulate is set) —
// the plain per-element triple loop's order. The kernels are
// register-tiled (4x8 accumulator block) with cache-blocked packing of
// A/B panels and row-panel parallelism over the common::parallel pool;
// tiling only batches *independent* accumulators, and the parallel split
// assigns whole output rows to workers, so results are bit-identical to
// the triple loop (tests/oracles.h) across tile shapes and
// SIGNGUARD_THREADS values. gemm.cc is compiled with -ffp-contract=off so
// no clone silently fuses into FMA.

#include <cstddef>

namespace signguard::nn {

// C[m x n] (+)= A[m x k] * B[k x n].
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate);

// C[m x n] (+)= A[m x k] * B[n x k]^T  (B stored row-major [n x k]).
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate);

// C[m x n] (+)= A[k x m]^T * B[k x n]  (A stored row-major [k x m]).
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate);

// Row-wise bias broadcast: c[i][j] += bias[j] (Linear output).
void add_bias_rows(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias);

// Per-row bias broadcast: c[i][j] += bias[i] (conv output channels).
void add_bias_cols(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias);

// out[j] += sum_i a[i][j] (bias gradient of a [batch x out] grad block).
void add_col_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out);

// out[i] += sum_j a[i][j] (bias gradient of a [channels x hw] grad block).
void add_row_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out);

}  // namespace signguard::nn
