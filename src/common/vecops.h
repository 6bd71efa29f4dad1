#pragma once
// Dense float-vector primitives shared by the NN library, the attacks and
// the aggregation rules. Gradients throughout the project are flat
// std::vector<float> buffers; read-only views are std::span<const float>.
// A round's worth of gradients is a common::GradientMatrix, and the
// matrix-level kernels at the bottom of this header run on the shared
// thread pool (common/parallel.h) with thread-count-invariant results.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/gradient_matrix.h"

namespace signguard::vec {

// Inner product <a, b>. Preconditions: a.size() == b.size().
double dot(std::span<const float> a, std::span<const float> b);

// Euclidean norm ||a||_2.
double norm(std::span<const float> a);

// Squared Euclidean distance ||a - b||^2.
double dist2(std::span<const float> a, std::span<const float> b);

// Euclidean distance ||a - b||.
double dist(std::span<const float> a, std::span<const float> b);

// Cosine similarity <a,b>/(||a||·||b||); 0 when either norm is 0.
double cosine(std::span<const float> a, std::span<const float> b);

// y += alpha * x  (classic axpy).
void axpy(double alpha, std::span<const float> x, std::span<float> y);

// x *= alpha.
void scale(std::span<float> x, double alpha);

// Element-wise out = a - b.
std::vector<float> sub(std::span<const float> a, std::span<const float> b);

// Element-wise out = a + b.
std::vector<float> add(std::span<const float> a, std::span<const float> b);

// out = alpha * a.
std::vector<float> scaled(std::span<const float> a, double alpha);

// Coordinate-wise mean and standard deviation (population, i.e. /n) over a
// set of equal-length rows.
struct CoordinateMoments {
  std::vector<float> mean;
  std::vector<float> stddev;
};

// In-place rescale so that ||x|| <= bound (no-op when already within, or
// when ||x|| == 0).
void clip_norm(std::span<float> x, double bound);

// Element-wise sign as -1 / 0 / +1 stored in int8-like floats.
std::vector<float> sign(std::span<const float> a);

// Fills `out` with zeros; convenience for accumulators.
void zero(std::span<float> out);

// ---- borrowed-row-set overloads --------------------------------------------
// Over spans that typically alias GradientMatrix rows (the attack layer's
// AttackContext shape).

// Arithmetic mean of a non-empty row set: float accumulation by axpy, row
// by row (MinMax/MinSum's rounding; the matrix mean below accumulates in
// double).
std::vector<float> mean_of(std::span<const std::span<const float>> vs);
// The one moments kernel: threaded over coordinate ranges and tiled by
// kAccumulatorTile, so each row streams once; the matrix overload
// forwards here.
CoordinateMoments coordinate_moments(
    std::span<const std::span<const float>> vs);

// ---- matrix kernels (threaded) ---------------------------------------------
// All kernels below parallelize over rows, pairs or coordinate ranges of
// the flat matrix; each output slot is produced by exactly one chunk with
// sequential inner accumulation, so results do not depend on the thread
// count.

// Accumulator tile width shared by the coordinate-parallel reductions
// (mean/weighted-mean/moments here, GeoMed's Weiszfeld sweep, ByzMean's
// benign sum, SignGuard's wire-path survivor mean): a worker's
// chunk of a d=1M gradient is a multi-megabyte accumulator that would be
// re-streamed from memory once per row; a 4K-coordinate tile (32 KB of
// doubles) stays in L1 across the whole row loop. Tiling only regroups
// coordinates — each coordinate still accumulates over rows in the same
// order — so results are bitwise unchanged.
inline constexpr std::size_t kAccumulatorTile = 4096;

// Per-row l2 norms.
std::vector<double> row_norms(const common::GradientMatrix& g);

// Per-row inner products <g_i, ref>. Precondition: ref.size() == cols.
std::vector<double> row_dots(const common::GradientMatrix& g,
                             std::span<const float> ref);

// ---- pairwise geometry -----------------------------------------------------
// The O(n^2 d) pairwise blocks behind Krum/Bulyan/Min-Max/Min-Sum and the
// similarity filters come from the upper triangle of one n x n Gram
// matrix built by nn::gram_upper(G) (float accumulation, each entry
// bitwise the gemm_nt(G, G) entry, thread-parallel), with
// dist2(i, j) = <g_i,g_i> + <g_j,g_j> - 2<g_i,g_j> clamped at 0.
// Results are bitwise thread-count-invariant. They differ from the scalar
// per-pair loops (one double accumulator per entry; tests/oracles.h) by
// float-vs-double rounding and by cancellation on near-duplicate rows, so
// that cross-check is tolerance-based, never bitwise.

// Dense symmetric n x n block of inner products, row-major.
std::vector<double> pairwise_dot(const common::GradientMatrix& g);

// Packed upper triangle of pairwise squared distances: n*(n-1)/2 entries,
// (i, j) with i < j at [i*(2n-i-1)/2 + j-i-1]. Backs PairwiseDistances,
// the one distance derivation every consumer reads.
std::vector<double> pairwise_dist2_packed(const common::GradientMatrix& g);

// Arithmetic mean of all rows / of the rows in `indices` (non-empty).
std::vector<float> mean_of(const common::GradientMatrix& g);
std::vector<float> mean_of_subset(const common::GradientMatrix& g,
                                  std::span<const std::size_t> indices);

// sum_k(weights[k] * g.row(indices[k])) / indices.size() — the clipped-
// mean inner loop. Precondition: weights.size() == indices.size() > 0.
std::vector<float> weighted_mean_of_subset(
    const common::GradientMatrix& g, std::span<const std::size_t> indices,
    std::span<const double> weights);

// Coordinate-wise mean/stddev in one fused pass over the matrix.
CoordinateMoments coordinate_moments(const common::GradientMatrix& g);

// ---- sorted column tiles ---------------------------------------------------
// The coordinate-wise order statistics (TrMean, Median, Bulyan stage 2)
// read ranks from tiles of kSortTileCols columns, all sorted at once by
// one branchless network (see for_each_sorted_tile).

inline constexpr std::size_t kSortTileCols = 64;

// IEEE-754 totalOrder as a signed int32 order: negative floats get their
// magnitude bits flipped, so -NaN < -inf < ... < -0.0 < +0.0 < ... <
// +inf < +NaN. The map is its own inverse.
inline std::int32_t total_order_key(std::int32_t bits) {
  return bits ^ ((bits >> 31) & 0x7FFFFFFF);
}

// Columns [first_col, first_col + width) of the swept rows, each sorted
// ascending under totalOrder: at(r, c) is rank r of the tile's column c.
struct SortedTile {
  std::size_t first_col;
  std::size_t width;  // <= kSortTileCols; the last tile may be partial
  std::size_t rows;
  const std::int32_t* keys;  // rows x kSortTileCols keys, row-major

  float at(std::size_t rank, std::size_t c) const {
    return std::bit_cast<float>(
        total_order_key(keys[rank * kSortTileCols + c]));
  }
};

// Loads each kSortTileCols-column tile of g row-major as totalOrder keys
// (every row, or the rows in `rows` when non-empty), sorts all its
// columns with one Batcher odd-even merge network (lane-wise integer
// min/max, no data-dependent branch) and calls fn with it. Columns of
// a partial tile past `width` hold padding. Each tile is sorted by one
// worker, and a sorted column does not depend on the row order, so
// results are thread-count-invariant whenever fn is deterministic.
void for_each_sorted_tile(const common::GradientMatrix& g,
                          std::span<const std::size_t> rows,
                          const std::function<void(const SortedTile&)>& fn);

}  // namespace signguard::vec
