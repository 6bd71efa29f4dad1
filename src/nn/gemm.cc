#include "nn/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/clones.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace signguard::nn {
namespace {

enum class Trans { kN, kT };

constexpr std::size_t kMr = 8;  // micro-tile rows
constexpr std::size_t kNr = 8;  // micro-tile cols
// One micro-tile row of kNr float accumulators (GCC/Clang vector
// extension): the baseline clone lowers it to two SSE registers, the AVX2
// clone to one ymm register.
typedef float Row __attribute__((vector_size(kNr * sizeof(float))));
// Below this many multiply-adds the row-panel fan-out costs more than it
// saves; the kernel then stays on the calling thread.
constexpr std::size_t kParallelMacs = std::size_t{1} << 20;

// Wider vector units only change how many independent accumulators a
// lane batch holds, never the per-accumulator addition order, and
// -ffp-contract=off keeps mul+add unfused in every clone — so the AVX2
// clone is bit-identical to the baseline and to the plain triple loop.
//
// One kMr x kNr C tile: kMr accumulator rows held in vector registers;
// each k step adds a_rp * b_p to row r, so each output element sees the
// triple loop's exact addition order. A is read where it lies: element
// (r, p) of the panel is a[r * rsa + p * csa]. B is a packed p-major
// panel. The unroll pragmas keep the rows in registers from C's load to
// its store; a rolled loop makes GCC stage them through the stack.
SIGNGUARD_AVX2_CLONES
void micro_kernel(std::size_t k, const float* a, std::size_t rsa,
                  std::size_t csa, const float* pb, float* c,
                  std::size_t ldc, bool accumulate) {
  Row acc[kMr] = {};
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kMr; ++r)
    if (accumulate) std::memcpy(&acc[r], c + r * ldc, sizeof(Row));
  for (std::size_t p = 0; p < k; ++p) {
    Row b;
    std::memcpy(&b, pb + p * kNr, sizeof(Row));
    for (std::size_t r = 0; r < kMr; ++r) acc[r] += a[r * rsa + p * csa] * b;
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kMr; ++r)
    std::memcpy(c + r * ldc, &acc[r], sizeof(Row));
}

// Edge or transposed-C tile: the full micro-kernel runs on a local
// kMr x kNr tile and only the valid lanes are loaded from and stored to
// C, whose element (r, q) sits at c[r * rsc + q * csc]. Padded lanes start
// at zero and read the zero-padded A and B lanes; they are never stored.
// Every stored element sees the identical ascending-k addition sequence,
// so the bits match micro_kernel, while the k loop keeps the vectorized
// fixed-width body instead of runtime-bounded scalar loops.
void micro_kernel_scratch(std::size_t k, const float* a, std::size_t rsa,
                          std::size_t csa, const float* pb, float* c,
                          std::size_t rsc, std::size_t csc, bool accumulate,
                          std::size_t rows, std::size_t cols) {
  float tile[kMr * kNr] = {};
  if (accumulate)
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t q = 0; q < cols; ++q)
        tile[r * kNr + q] = c[r * rsc + q * csc];
  micro_kernel(k, a, rsa, csa, pb, tile, kNr, accumulate);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t q = 0; q < cols; ++q)
      c[r * rsc + q * csc] = tile[r * kNr + q];
}

// Packing scratch, grown once per thread and reused — GEMM calls on the
// training hot path do no steady-state allocation. The B pack holds one
// slab: at most max(kGemmOneSlabFloats, kGemmSlabK * n) floats; the A
// pack holds one partial row panel of a slab.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

// The last row panel when m is not a multiple of kMr: its `rows` rows of
// op(A) (element (r, p) at a[r * rsa + p * csa]) over kc k steps, packed
// into the calling worker's tl_pack_a p-major with kMr lanes per step,
// lanes past `rows` zero.
const float* pack_a_panel(const float* a, std::size_t rsa, std::size_t csa,
                          std::size_t rows, std::size_t kc) {
  if (tl_pack_a.size() < kc * kMr) tl_pack_a.resize(kc * kMr);
  float* const dst = tl_pack_a.data();
  for (std::size_t p = 0; p < kc; ++p)
    for (std::size_t r = 0; r < kMr; ++r)
      dst[p * kMr + r] = r < rows ? a[r * rsa + p * csa] : 0.0f;
  return dst;
}

// The k slab [p0, p0 + kc) of op(B)'s n columns as kNr-wide panels, each
// p-major, so the micro-kernel streams a panel linearly; transposition
// happens here, which is what keeps the kernels free of col-major access.
// The final partial panel is zero-padded — padded lanes are computed but
// never stored.
void pack_b_slab(const float* b, std::size_t ldb, Trans tb, std::size_t n,
                 std::size_t p0, std::size_t kc, float* dst) {
  for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
    const std::size_t cols = std::min(kNr, n - j0);
    for (std::size_t p = p0; p < p0 + kc; ++p) {
      for (std::size_t q = 0; q < cols; ++q)
        *dst++ = tb == Trans::kN ? b[p * ldb + j0 + q] : b[(j0 + q) * ldb + p];
      for (std::size_t q = cols; q < kNr; ++q) *dst++ = 0.0f;
    }
  }
}

// The one loop nest behind every product, in the order of Goto and van
// de Geijn (ACM TOMS 2008) without their n blocking: k is cut into slabs
// of kGemmSlabK (one slab when the whole packed B is at most
// kGemmOneSlabFloats; see gemm.h for the cache sizes behind both). Each
// slab packs B's kc x n slice once, runs every A row panel over it, and
// leaves C in memory for the next slab. C is each element's float
// accumulator, so storing it after one slab and loading it at the next
// keeps the ascending-k addition sequence, and the bits, of one pass.
//
// C element (i, j) lives at c[i * rsc + j * csc]: (ldc, 1) for the
// row-major C of every public entry point, (1, ldc) when gemm_dispatch
// computes a product as its transpose. A is not packed: the micro-kernel
// reads op(A)'s element (i, p) at a[i * rsa + p * csa].
//
// `upper` is the Gram product C = G * G^T (a == b == G, ta = kN, tb = kT,
// m == n): only micro-tiles holding an element on or above the diagonal
// run, and since kMr == kNr the rows of A panel pi are the lanes of B
// panel pi (zero past row n), read from the cache-resident pack — G is
// read and packed once per slab for both operands.
void gemm_tiled(std::size_t m, std::size_t n, std::size_t k, const float* a,
                std::size_t lda, Trans ta, const float* b, std::size_t ldb,
                Trans tb, float* c, std::size_t rsc, std::size_t csc,
                bool accumulate, bool upper) {
  static_assert(kMr == kNr, "the Gram reads its A panels from the B pack");
  if (k == 0 && !accumulate)  // no slab runs: the product is a zero matrix
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) c[i * rsc + j * csc] = 0.0f;
  const std::size_t rsa = ta == Trans::kN ? lda : 1;
  const std::size_t csa = ta == Trans::kN ? 1 : lda;
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  const std::size_t m_panels = (m + kMr - 1) / kMr;
  const std::size_t slab =
      k * n_panels * kNr <= kGemmOneSlabFloats ? k : kGemmSlabK;
  if (tl_pack_b.size() < slab * n_panels * kNr)
    tl_pack_b.resize(slab * n_panels * kNr);
  float* const pb = tl_pack_b.data();
  // Row panel pi of the triangle runs n_panels - pi tiles, so the
  // triangle hands out pairs (t, m_panels - 1 - t) of near-equal work:
  // parallel_chunks' equal index ranges are then equal shares.
  const std::size_t tasks = upper ? (m_panels + 1) / 2 : m_panels;
  const bool fan_out = m * n * k >= kParallelMacs &&
                       common::thread_count() > 1 &&
                       !common::in_parallel_region();

  for (std::size_t p0 = 0; p0 < k; p0 += slab) {
    const std::size_t kc = std::min(slab, k - p0);
    const bool load_c = accumulate || p0 > 0;
    pack_b_slab(b, ldb, tb, n, p0, kc, pb);

    auto run_panel = [&](std::size_t pi) {
      const std::size_t i0 = pi * kMr;
      const std::size_t rows = std::min(kMr, m - i0);
      // A whole panel is read in place; the Gram's panel and a partial
      // one are p-major packs of kMr lanes.
      const bool packed = upper || rows < kMr;
      const float* pa = a + i0 * rsa + p0 * csa;
      if (packed)
        pa = upper ? pb + pi * kc * kNr : pack_a_panel(pa, rsa, csa, rows, kc);
      const std::size_t rs = packed ? 1 : rsa, cs = packed ? kMr : csa;
      for (std::size_t pj = upper ? pi : 0; pj < n_panels; ++pj) {
        const std::size_t j0 = pj * kNr;
        const std::size_t cols = std::min(kNr, n - j0);
        const float* pbj = pb + pj * kc * kNr;
        float* ct = c + i0 * rsc + j0 * csc;
        if (rows == kMr && cols == kNr && csc == 1)
          micro_kernel(kc, pa, rs, cs, pbj, ct, rsc, load_c);
        else
          micro_kernel_scratch(kc, pa, rs, cs, pbj, ct, rsc, csc, load_c,
                               rows, cols);
      }
    };
    auto run_tasks = [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        run_panel(t);
        if (upper && m_panels - 1 - t != t) run_panel(m_panels - 1 - t);
      }
    };
    // Whole C rows per worker -> disjoint writes, and every element's
    // value is independent of the split (each slab's dispatch returns
    // before the next slab is packed), so any thread count yields the
    // same bits.
    if (fan_out)
      common::parallel_chunks(
          tasks, [&](std::size_t b0, std::size_t e0, std::size_t) {
            run_tasks(b0, e0);
          });
    else
      run_tasks(0, tasks);
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
  if (ta == Trans::kN && tb == Trans::kT && m <= kNr && n > kNr) {
    // A skinny NT product (the batch-8 forward x * W^T against a wide
    // weight) runs as its transpose C^T = B * A^T: the wide operand is
    // read in place once, kMr rows at a time, as A instead of being
    // packed whole as B, and the skinny side packs into one B panel.
    // Each element multiplies the same operand pairs (IEEE multiplication
    // commutes) and sums them in the same ascending k, so the bits match.
    gemm_tiled(n, m, k, b, ldb, Trans::kN, a, lda, Trans::kT, c, 1, ldc,
               accumulate, /*upper=*/false);
    return;
  }
  gemm_tiled(m, n, k, a, lda, ta, b, ldb, tb, c, ldc, 1, accumulate,
             /*upper=*/false);
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

void gram_upper(std::size_t n, std::size_t k, const float* g,
                std::size_t ldg, float* c, std::size_t ldc) {
  if (n == 0) return;
  // gemm_flops bills the 64-row block schedule, sum over i0 = 0, 64, ...
  // of 2 * rows * (n - i0) * k (2 * n^2 * k for n <= 64): a fixed function
  // of (n, k) that the golden traces pin, not the multiply-adds the
  // triangle runs.
  std::uint64_t macs = 0;
  for (std::size_t i0 = 0; i0 < n; i0 += 64)
    macs += std::uint64_t(std::min<std::size_t>(64, n - i0)) * (n - i0);
  obs::count(obs::Counter::kGemmFlops, 2 * macs * k);
  gemm_tiled(n, n, k, g, ldg, Trans::kN, g, ldg, Trans::kT, c, ldc, 1,
             /*accumulate=*/false, /*upper=*/true);
}

void add_bias_rows(float* c, std::size_t m, std::size_t n, std::size_t ldc,
                   const float* bias) {
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    for (std::size_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void add_col_sums(const float* a, std::size_t m, std::size_t n,
                  std::size_t lda, float* out) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a + i * lda;
    for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

}  // namespace signguard::nn
