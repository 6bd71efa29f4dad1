#include "common/vecops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/clones.h"
#include "common/parallel.h"
#include "nn/gemm.h"

namespace signguard::vec {

double dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += double(a[i]) * double(b[i]);
  return acc;
}

double norm(std::span<const float> a) { return std::sqrt(dot(a, a)); }

double dist2(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = double(a[i]) - double(b[i]);
    acc += d * d;
  }
  return acc;
}

double dist(std::span<const float> a, std::span<const float> b) {
  return std::sqrt(dist2(a, b));
}

double cosine(std::span<const float> a, std::span<const float> b) {
  const double na = norm(a);
  const double nb = norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

void axpy(double alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    y[i] = static_cast<float>(double(y[i]) + alpha * double(x[i]));
}

void scale(std::span<float> x, double alpha) {
  for (auto& v : x) v = static_cast<float>(double(v) * alpha);
}

std::vector<float> sub(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<float> add(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<float> scaled(std::span<const float> a, double alpha) {
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = static_cast<float>(double(a[i]) * alpha);
  return out;
}

void clip_norm(std::span<float> x, double bound) {
  const double n = norm(x);
  if (n > bound && n > 0.0) scale(x, bound / n);
}

std::vector<float> sign(std::span<const float> a) {
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = a[i] > 0.0f ? 1.0f : (a[i] < 0.0f ? -1.0f : 0.0f);
  return out;
}

void zero(std::span<float> out) {
  for (auto& v : out) v = 0.0f;
}

// ---- borrowed-row-set overloads --------------------------------------------

std::vector<float> mean_of(std::span<const std::span<const float>> vs) {
  assert(!vs.empty());
  std::vector<float> out(vs.front().size(), 0.0f);
  for (const auto v : vs) axpy(1.0, v, out);
  scale(out, 1.0 / double(vs.size()));
  return out;
}

// ---- matrix kernels (threaded) ---------------------------------------------

std::vector<double> row_norms(const common::GradientMatrix& g) {
  std::vector<double> out(g.rows(), 0.0);
  common::parallel_for(g.rows(),
                       [&](std::size_t i) { out[i] = norm(g.row(i)); });
  return out;
}

std::vector<double> row_dots(const common::GradientMatrix& g,
                             std::span<const float> ref) {
  assert(ref.size() == g.cols() || g.rows() == 0);
  std::vector<double> out(g.rows(), 0.0);
  common::parallel_for(g.rows(),
                       [&](std::size_t i) { out[i] = dot(g.row(i), ref); });
  return out;
}

namespace {

// Gram matrix <g_i, g_j>: the diagonal and upper triangle from one
// nn::gram_upper product (every entry bitwise equal to the full
// gemm_nt(G, G), so thread-count-invariant). When `mirror` is set the
// lower triangle is filled by reflection for dense consumers; the packed
// kernel reads the upper triangle only and skips it.
std::vector<float> gram_matrix(const common::GradientMatrix& g,
                               bool mirror) {
  const std::size_t n = g.rows();
  std::vector<float> gram(n * n, 0.0f);
  nn::gram_upper(n, g.cols(), g.data(), g.cols(), gram.data(), n);
  if (mirror)
    common::parallel_for(n, [&](std::size_t j) {
      for (std::size_t i = 0; i < j; ++i) gram[j * n + i] = gram[i * n + j];
    });
  return gram;
}

// dist2 from Gram entries; clamped at 0 because cancellation on
// near-duplicate rows can push the identity slightly negative.
inline double dist2_from_gram(const std::vector<float>& gram, std::size_t n,
                              std::size_t i, std::size_t j) {
  const double d2 = double(gram[i * n + i]) + double(gram[j * n + j]) -
                    2.0 * double(gram[i * n + j]);
  return std::max(0.0, d2);
}

// Offset of row i's packed-triangle segment: entries (i, j) for j > i.
inline std::size_t packed_row_offset(std::size_t n, std::size_t i) {
  return i * (2 * n - i - 1) / 2;
}

}  // namespace

std::vector<double> pairwise_dot(const common::GradientMatrix& g) {
  const std::size_t n = g.rows();
  if (n == 0) return {};
  const auto gram = gram_matrix(g, /*mirror=*/true);
  std::vector<double> out(n * n, 0.0);
  common::parallel_for(n, [&](std::size_t i) {
    for (std::size_t j = 0; j < n; ++j)
      out[i * n + j] = double(gram[i * n + j]);
  });
  return out;
}

std::vector<double> pairwise_dist2_packed(const common::GradientMatrix& g) {
  const std::size_t n = g.rows();
  if (n < 2) return {};
  std::vector<double> out(n * (n - 1) / 2, 0.0);
  const auto gram = gram_matrix(g, /*mirror=*/false);
  common::parallel_for(n - 1, [&](std::size_t i) {
    const std::size_t base = packed_row_offset(n, i);
    for (std::size_t j = i + 1; j < n; ++j)
      out[base + j - i - 1] = dist2_from_gram(gram, n, i, j);
  });
  return out;
}

namespace {

constexpr std::size_t kAccTile = kAccumulatorTile;  // local shorthand

// Coordinate-parallel weighted accumulation: each chunk owns a disjoint
// coordinate range and walks the selected rows in order, so the float
// rounding sequence per coordinate is fixed for any thread count.
std::vector<float> accumulate_columns(const common::GradientMatrix& g,
                                      std::span<const std::size_t> indices,
                                      std::span<const double> weights,
                                      double inv_count) {
  assert(!indices.empty());
  const std::size_t d = g.cols();
  std::vector<float> out(d, 0.0f);
  common::parallel_chunks(
      d, [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<double> acc(std::min(kAccTile, end - begin), 0.0);
        for (std::size_t t0 = begin; t0 < end; t0 += kAccTile) {
          const std::size_t t1 = std::min(end, t0 + kAccTile);
          std::fill(acc.begin(), acc.begin() + std::ptrdiff_t(t1 - t0), 0.0);
          for (std::size_t k = 0; k < indices.size(); ++k) {
            const auto row = g.row(indices[k]);
            const double w = weights.empty() ? 1.0 : weights[k];
            for (std::size_t j = t0; j < t1; ++j)
              acc[j - t0] += w * double(row[j]);
          }
          for (std::size_t j = t0; j < t1; ++j)
            out[j] = static_cast<float>(acc[j - t0] * inv_count);
        }
      });
  return out;
}

}  // namespace

std::vector<float> mean_of(const common::GradientMatrix& g) {
  assert(!g.empty());
  std::vector<std::size_t> all(g.rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return accumulate_columns(g, all, {}, 1.0 / double(g.rows()));
}

std::vector<float> mean_of_subset(const common::GradientMatrix& g,
                                  std::span<const std::size_t> indices) {
  return accumulate_columns(g, indices, {}, 1.0 / double(indices.size()));
}

std::vector<float> weighted_mean_of_subset(
    const common::GradientMatrix& g, std::span<const std::size_t> indices,
    std::span<const double> weights) {
  assert(weights.size() == indices.size());
  return accumulate_columns(g, indices, weights,
                            1.0 / double(indices.size()));
}

namespace {

// Adds rows[0..R) to the moment accumulators of coordinates [t0, t1),
// rows in order: each accumulator is loaded and stored once per R rows.
template <std::size_t R>
void add_moment_rows(const std::span<const float>* rows, std::size_t t0,
                     std::size_t t1, double* __restrict sum,
                     double* __restrict sum_sq) {
  for (std::size_t j = t0; j < t1; ++j) {
    double s = sum[j - t0], q = sum_sq[j - t0];
    for (std::size_t r = 0; r < R; ++r) {
      const double v = double(rows[r][j]);
      s += v;
      q += v * v;
    }
    sum[j - t0] = s;
    sum_sq[j - t0] = q;
  }
}

}  // namespace

CoordinateMoments coordinate_moments(
    std::span<const std::span<const float>> vs) {
  assert(!vs.empty());
  const std::size_t d = vs.front().size();
  const std::size_t rows = vs.size();
  const double n = double(rows);
  CoordinateMoments m;
  m.mean.assign(d, 0.0f);
  m.stddev.assign(d, 0.0f);
  common::parallel_chunks(
      d, [&](std::size_t begin, std::size_t end, std::size_t) {
        const std::size_t tile = std::min(kAccTile, end - begin);
        std::vector<double> sum(tile, 0.0), sum_sq(tile, 0.0);
        for (std::size_t t0 = begin; t0 < end; t0 += kAccTile) {
          const std::size_t t1 = std::min(end, t0 + kAccTile);
          std::fill(sum.begin(), sum.begin() + std::ptrdiff_t(t1 - t0), 0.0);
          std::fill(sum_sq.begin(), sum_sq.begin() + std::ptrdiff_t(t1 - t0),
                    0.0);
          std::size_t i = 0;
          for (; i + 4 <= rows; i += 4)
            add_moment_rows<4>(&vs[i], t0, t1, sum.data(), sum_sq.data());
          for (; i < rows; ++i)
            add_moment_rows<1>(&vs[i], t0, t1, sum.data(), sum_sq.data());
          for (std::size_t j = t0; j < t1; ++j) {
            const double mu = sum[j - t0] / n;
            const double var = std::max(0.0, sum_sq[j - t0] / n - mu * mu);
            m.mean[j] = static_cast<float>(mu);
            m.stddev[j] = static_cast<float>(std::sqrt(var));
          }
        }
      });
  return m;
}

CoordinateMoments coordinate_moments(const common::GradientMatrix& g) {
  assert(!g.empty());
  std::vector<std::span<const float>> rows(g.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = g.row(i);
  return coordinate_moments(std::span<const std::span<const float>>(rows));
}

namespace {

// After a comparator, rank `lo` holds the smaller key and rank `hi` the
// larger.
struct Comparator {
  std::uint32_t lo, hi;
};

// Batcher's odd-even merge sort for the next power of two >= n, pruned
// to the comparators whose two ends are both below n. A pruned one
// would compare a rank below n with +inf padding above it and never move
// a key, so the pruned network still sorts n keys. n = 1024 gives 24,063
// comparators.
std::vector<Comparator> batcher_network(std::size_t n) {
  std::vector<Comparator> net;
  for (std::size_t p = 1; p < n; p <<= 1)
    for (std::size_t k = p; k >= 1; k >>= 1)
      for (std::size_t j = k % p; j + k < n; j += 2 * k)
        for (std::size_t i = 0; i < std::min(k, n - j - k); ++i)
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p))
            net.push_back({std::uint32_t(i + j), std::uint32_t(i + j + k)});
  return net;
}

// One comparator over every column of a tile at once: lane-wise
// min/max of two rows of kSortTileCols keys, as a masked xor swap that
// GCC vectorizes at -O3 on any x86-64 (baseline SSE2 has no 32-bit
// integer min/max instruction, so a std::min/std::max loop would stay
// scalar and branchy there).
inline void compare_exchange(std::int32_t* __restrict lo,
                             std::int32_t* __restrict hi) {
  for (std::size_t c = 0; c < kSortTileCols; ++c) {
    const std::int32_t a = lo[c];
    const std::int32_t b = hi[c];
    const std::int32_t swap = (a ^ b) & -std::int32_t(b < a);
    lo[c] = a ^ swap;
    hi[c] = b ^ swap;
  }
}

SIGNGUARD_AVX2_CLONES
void sort_tile(std::int32_t* keys, const Comparator* net, std::size_t size) {
  for (std::size_t q = 0; q < size; ++q)
    compare_exchange(keys + net[q].lo * kSortTileCols,
                     keys + net[q].hi * kSortTileCols);
}

}  // namespace

void for_each_sorted_tile(const common::GradientMatrix& g,
                          std::span<const std::size_t> rows,
                          const std::function<void(const SortedTile&)>& fn) {
  const std::size_t d = g.cols();
  const std::size_t n = rows.empty() ? g.rows() : rows.size();
  if (n == 0 || d == 0) return;
  assert(n <= UINT32_MAX);  // comparator ranks are 32-bit
  const auto net = batcher_network(n);
  const std::size_t tiles = (d + kSortTileCols - 1) / kSortTileCols;
  common::parallel_chunks(
      tiles, [&](std::size_t t_begin, std::size_t t_end, std::size_t) {
        std::vector<std::int32_t> keys(n * kSortTileCols, 0);
        for (std::size_t t = t_begin; t < t_end; ++t) {
          const std::size_t j0 = t * kSortTileCols;
          const std::size_t w = std::min(kSortTileCols, d - j0);
          for (std::size_t r = 0; r < n; ++r) {
            const float* src = g.row(rows.empty() ? r : rows[r]).data() + j0;
            std::int32_t* dst = keys.data() + r * kSortTileCols;
            for (std::size_t c = 0; c < w; ++c)
              dst[c] = total_order_key(std::bit_cast<std::int32_t>(src[c]));
          }
          sort_tile(keys.data(), net.data(), net.size());
          fn(SortedTile{j0, w, n, keys.data()});
        }
      });
}

}  // namespace signguard::vec

