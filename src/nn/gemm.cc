#include "nn/gemm.h"

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "obs/metrics.h"

namespace signguard::nn {
namespace {

enum class Trans { kN, kT };

constexpr std::size_t kMr = 4;  // micro-tile rows
constexpr std::size_t kNr = 8;  // micro-tile cols
// Below this many multiply-adds the row-panel fan-out costs more than it
// saves; the kernel then stays on the calling thread.
constexpr std::size_t kParallelMacs = std::size_t{1} << 20;

inline float elem(const float* p, std::size_t ld, Trans t, std::size_t row,
                  std::size_t col) {
  // Logical (row, col) of the possibly-transposed operand.
  return t == Trans::kN ? p[row * ld + col] : p[col * ld + row];
}

// Wider vector units only change how many independent accumulators a
// lane batch holds, never the per-accumulator addition order, and
// -ffp-contract=off keeps mul+add unfused in every clone — so the AVX2
// clone is bit-identical to the baseline and to the plain triple loop.
// ThreadSanitizer builds take the baseline only: target_clones emits an
// IFUNC resolver that runs during relocation, before the TSan runtime is
// up, and crashes every binary that links this file before main.
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define SIGNGUARD_GEMM_CLONES \
  __attribute__((target_clones("default", "avx2")))
#endif
#endif
#ifndef SIGNGUARD_GEMM_CLONES
#define SIGNGUARD_GEMM_CLONES
#endif

// One kMr x kNr C tile: kMr*kNr independent accumulators held in
// registers; the k loop is sequential per accumulator, so each output
// element sees the triple loop's exact addition order.
SIGNGUARD_GEMM_CLONES
void micro_kernel(std::size_t k, const float* pa, const float* pb, float* c,
                  std::size_t ldc, bool accumulate) {
  float acc[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t q = 0; q < kNr; ++q)
      acc[r][q] = accumulate ? c[r * ldc + q] : 0.0f;
  for (std::size_t p = 0; p < k; ++p) {
    const float* ap = pa + p * kMr;
    const float* bp = pb + p * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = ap[r];
      for (std::size_t q = 0; q < kNr; ++q) acc[r][q] += av * bp[q];
    }
  }
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t q = 0; q < kNr; ++q) c[r * ldc + q] = acc[r][q];
}

// Edge or transposed-C tile: the full micro-kernel runs on a local
// kMr x kNr tile and only the valid lanes are loaded from and stored to
// C, whose element (r, q) sits at c[r * rsc + q * csc]. Padded lanes start
// at zero and read the zero-padded pack lanes; they are never stored.
// Every stored element sees the identical ascending-k addition sequence,
// so the bits match micro_kernel, while the k loop keeps
// the vectorized fixed-width body instead of runtime-bounded scalar loops.
void micro_kernel_scratch(std::size_t k, const float* pa, const float* pb,
                          float* c, std::size_t rsc, std::size_t csc,
                          bool accumulate, std::size_t rows,
                          std::size_t cols) {
  float tile[kMr * kNr] = {};
  if (accumulate)
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t q = 0; q < cols; ++q)
        tile[r * kNr + q] = c[r * rsc + q * csc];
  micro_kernel(k, pa, pb, tile, kNr, accumulate);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t q = 0; q < cols; ++q)
      c[r * rsc + q * csc] = tile[r * kNr + q];
}

// Packing scratch, grown once per thread and reused — GEMM calls on the
// training hot path do no steady-state allocation.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

// C element (i, j) lives at c[i * rsc + j * csc]: (ldc, 1) for the
// row-major C of every public entry point, (1, ldc) when gemm_dispatch
// computes a product as its transpose.
void gemm_tiled(std::size_t m, std::size_t n, std::size_t k, const float* a,
                std::size_t lda, Trans ta, const float* b, std::size_t ldb,
                Trans tb, float* c, std::size_t rsc, std::size_t csc,
                bool accumulate) {
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  // Pack B's kNr-wide panels once, p-major, so the micro-kernel streams
  // each panel linearly; transposition happens here, which is what keeps
  // the kernels free of col-major access. The final partial panel is
  // zero-padded — padded lanes are computed but never stored.
  if (tl_pack_b.size() < k * n_panels * kNr)
    tl_pack_b.resize(k * n_panels * kNr);
  float* pb_base = tl_pack_b.data();
  for (std::size_t pj = 0; pj < n_panels; ++pj) {
    const std::size_t j0 = pj * kNr;
    const std::size_t cols = std::min(kNr, n - j0);
    float* dst = pb_base + j0 * k;
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t q = 0; q < cols; ++q)
        *dst++ = elem(b, ldb, tb, p, j0 + q);
      for (std::size_t q = cols; q < kNr; ++q) *dst++ = 0.0f;
    }
  }

  const std::size_t panels = (m + kMr - 1) / kMr;
  auto run_panels = [&](std::size_t begin, std::size_t end) {
    // tl_pack_a resolves to the executing worker's buffer.
    if (tl_pack_a.size() < k * kMr) tl_pack_a.resize(k * kMr);
    float* pa = tl_pack_a.data();
    for (std::size_t pi = begin; pi < end; ++pi) {
      const std::size_t i0 = pi * kMr;
      const std::size_t rows = std::min(kMr, m - i0);
      for (std::size_t p = 0; p < k; ++p) {
        for (std::size_t r = 0; r < rows; ++r)
          pa[p * kMr + r] = elem(a, lda, ta, i0 + r, p);
        for (std::size_t r = rows; r < kMr; ++r) pa[p * kMr + r] = 0.0f;
      }
      for (std::size_t pj = 0; pj < n_panels; ++pj) {
        const std::size_t j0 = pj * kNr;
        const std::size_t cols = std::min(kNr, n - j0);
        float* ct = c + i0 * rsc + j0 * csc;
        if (rows == kMr && cols == kNr && csc == 1)
          micro_kernel(k, pa, pb_base + j0 * k, ct, rsc, accumulate);
        else
          micro_kernel_scratch(k, pa, pb_base + j0 * k, ct, rsc, csc,
                               accumulate, rows, cols);
      }
    }
  };

  // Whole C rows per worker -> disjoint writes, and every element's value
  // is independent of the split, so any thread count yields the same bits.
  if (m * n * k >= kParallelMacs && common::thread_count() > 1 &&
      !common::in_parallel_region()) {
    common::parallel_chunks(
        panels,
        [&](std::size_t b0, std::size_t e0, std::size_t) { run_panels(b0, e0); });
  } else {
    run_panels(0, panels);
  }
}

void gemm_dispatch(std::size_t m, std::size_t n, std::size_t k,
                   const float* a, std::size_t lda, Trans ta, const float* b,
                   std::size_t ldb, Trans tb, float* c, std::size_t ldc,
                   bool accumulate) {
  if (m == 0 || n == 0) return;
  // Billed to whatever stage the caller's obs context is in (client
  // compute, eval, ...); a no-op without an attached registry.
  obs::count(obs::Counter::kGemmFlops,
             std::uint64_t(2) * m * n * k);
  if (k == 0) {
    // Degenerate inner dimension: the product is a zero matrix.
    if (!accumulate)
      for (std::size_t i = 0; i < m; ++i)
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    return;
  }
  if (ta == Trans::kN && tb == Trans::kT && m <= kNr && n > kNr) {
    // A skinny NT product (the batch-8 forward x * W^T against a wide
    // weight) runs as its transpose C^T = B * A^T: the wide operand is
    // streamed once, kMr rows at a time, as the A panel instead of being
    // packed whole as B, and the skinny side packs into one B panel.
    // Each element multiplies the same operand pairs (IEEE multiplication
    // commutes) and sums them in the same ascending k, so the bits match.
    gemm_tiled(n, m, k, b, ldb, Trans::kN, a, lda, Trans::kT, c, 1, ldc,
               accumulate);
    return;
  }
  gemm_tiled(m, n, k, a, lda, ta, b, ldb, tb, c, ldc, 1, accumulate);
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate) {
  gemm_dispatch(m, n, k, a, lda, Trans::kN, b, ldb, Trans::kN, c, ldc,
                accumulate);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate) {
  gemm_dispatch(m, n, k, a, lda, Trans::kN, b, ldb, Trans::kT, c, ldc,
                accumulate);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, bool accumulate) {
  gemm_dispatch(m, n, k, a, lda, Trans::kT, b, ldb, Trans::kN, c, ldc,
                accumulate);
}

void add_bias_rows(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias) {
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    for (std::size_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void add_bias_cols(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias) {
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    const float bv = bias[i];
    for (std::size_t j = 0; j < n; ++j) row[j] += bv;
  }
}

void add_col_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a + i * lda;
    for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

void add_row_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a + i * lda;
    float acc = out[i];
    for (std::size_t j = 0; j < n; ++j) acc += row[j];
    out[i] = acc;
  }
}

}  // namespace signguard::nn
