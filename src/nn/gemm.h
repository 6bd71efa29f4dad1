#pragma once
// Single-precision GEMM kernels behind the NN layers (Linear, the
// per-timestep RNN matmuls) and the Gram products of the aggregation
// rules, plus the small broadcast/reduction helpers Linear needs. All
// matrices are row-major with explicit leading dimensions, so strided
// views (a timestep slice of a [B, T, E] tensor) feed the kernels
// directly — no col-major conversion, no staging copies.
//
// Numeric contract: for every output element C[i][j], the kernels
// accumulate a_ip * b_pj over p = 0..k-1 strictly in order, in float, into
// a single accumulator (initialized from C[i][j] when accumulate is set) —
// the plain per-element triple loop's order. The kernels are
// register-tiled (an 8x8 accumulator block, eight vector rows of eight
// floats) over packed B panels, with A read in place through its leading
// dimension (only a partial last row panel is packed); they are blocked
// along k into slabs (C carries each element's accumulator from one slab
// to the next), with row-panel parallelism over the common::parallel
// pool. Tiling only batches *independent* accumulators, the slabs only
// split each element's ascending k loop, and the parallel split assigns
// whole output rows to workers, so results are bit-identical to the
// triple loop (tests/oracles.h) across tile shapes, slab counts, leading
// dimensions and SIGNGUARD_THREADS values. gemm.cc is compiled with
// -ffp-contract=off so no clone silently fuses into FMA.

#include <cstddef>

namespace signguard::nn {

// k-slab length. A micro-kernel call then reads 8 KB of A (kGemmSlabK x
// 8 floats, in place or packed) and an 8 KB B panel (kGemmSlabK x 8), and
// a slab's packed B, kGemmSlabK x n floats (256 KB for the Gram of a
// 256-client round), stays in L2 (1-2 MB per core) while every A panel
// sweeps it, so no call streams panels as long as k from memory (32 MB
// of B at k = 1M).
inline constexpr std::size_t kGemmSlabK = 256;
// A product whose whole packed B is at most this many floats (256 KB)
// runs as one slab: that pack already stays in L2 across every A panel,
// so slicing k buys no reuse and only stores and reloads C once more per
// slab. The skinny-NT forward of the flagship MLP (a 24 KB pack) is one
// such product.
inline constexpr std::size_t kGemmOneSlabFloats = 64 * 1024;

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

// Upper triangle of the Gram matrix C[n x n] = G[n x k] * G^T (G stored
// row-major with leading dimension ldg): every C[i][j] with i <= j is
// written, bitwise equal to gemm_nt(n, n, k, g, ldg, g, ldg, c, ldc,
// false). An entry below the diagonal is left as it was or set to its
// mirror's value. Tiles wholly below the diagonal are skipped and G is
// packed once per slab for both operands: A row panel i is B panel i.
void gram_upper(std::size_t n, std::size_t k, const float* g,
                std::size_t ldg, float* c, std::size_t ldc);

// Row-wise bias broadcast: c[i][j] += bias[j] (Linear output).
void add_bias_rows(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias);

// out[j] += sum_i a[i][j] (bias gradient of a [batch x out] grad block).
void add_col_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out);

}  // namespace signguard::nn
