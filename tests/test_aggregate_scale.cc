// Aggregation-at-scale suite: the Gram (GEMM-backed) pairwise kernels vs
// the direct pair loops of tests/oracles.h, the packed-triangle
// PairwiseDistances, the column-panel coordinate statistics, and the
// selection-based quantile/Krum-ranking satellites. Gram-vs-oracle
// comparisons are tolerance-based (float GEMM vs double pair loops);
// everything within the library — thread counts, packed vs dense, panel
// vs per-coordinate — must be bitwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "aggregators/baselines.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "common/quantiles.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "oracles.h"

namespace signguard {
namespace {

// Restores automatic pool sizing when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { common::set_thread_count(0); }
};

common::GradientMatrix gaussian_matrix(std::size_t n, std::size_t d,
                                       double mean, double stddev,
                                       std::uint64_t seed) {
  Rng rng(seed);
  common::GradientMatrix m(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (auto& v : m.row(i)) v = static_cast<float>(rng.normal(mean, stddev));
  return m;
}

// Adversarial fixture: benign cluster, a near-duplicate pair (Gram
// cancellation stress), huge-norm ByzMean-style outliers, and zero rows.
common::GradientMatrix adversarial_matrix(std::size_t d,
                                          std::uint64_t seed) {
  auto m = gaussian_matrix(10, d, 0.1, 1.0, seed);
  // Rows 1 = row 0 + tiny delta: dist2 ~ 1e-8 * d vs norms ~ d.
  for (std::size_t j = 0; j < d; ++j)
    m.at(1, j) = m.at(0, j) + (j % 2 == 0 ? 1e-4f : -1e-4f);
  // Huge-norm colluders.
  for (auto& v : m.row(2)) v = 1e4f;
  for (auto& v : m.row(3)) v = -1e4f;
  // Zero rows (dropped-out clients / crafted zeros).
  for (auto& v : m.row(4)) v = 0.0f;
  for (auto& v : m.row(5)) v = 0.0f;
  return m;
}

// ---- Gram vs direct --------------------------------------------------------

TEST(GramPairwise, AgreeWithinToleranceOnAdversarialInputs) {
  const auto m = adversarial_matrix(257, 21);
  const std::size_t n = m.rows();

  const auto d2_direct = oracle::pairwise_dist2(m);
  const auto dot_direct = oracle::pairwise_dot(m);
  const auto d2_gram = vec::pairwise_dist2(m);
  const auto dot_gram = vec::pairwise_dot(m);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Relative tolerance scaled by the row norms: the Gram identity
      // loses up to ~norm^2 * 1e-7 to float rounding/cancellation.
      const double scale =
          std::max({1.0, dot_direct[i * n + i], dot_direct[j * n + j]});
      EXPECT_NEAR(d2_gram[i * n + j], d2_direct[i * n + j], 1e-5 * scale)
          << "d2 (" << i << ", " << j << ")";
      EXPECT_NEAR(dot_gram[i * n + j], dot_direct[i * n + j], 1e-5 * scale)
          << "dot (" << i << ", " << j << ")";
      EXPECT_GE(d2_gram[i * n + j], 0.0) << "clamped at zero";
    }
  }
  // Zero rows: every quantity involving them is exact on both sides.
  EXPECT_EQ(d2_gram[4 * n + 5], 0.0);
  EXPECT_EQ(dot_gram[4 * n + 4], 0.0);
}

TEST(GramPairwise, GramIsThreadCountInvariant) {
  ThreadGuard guard;
  const auto m = adversarial_matrix(193, 22);
  common::set_thread_count(1);
  const auto d2_t1 = vec::pairwise_dist2(m);
  const auto dot_t1 = vec::pairwise_dot(m);
  const auto packed_t1 = vec::pairwise_dist2_packed(m);
  common::set_thread_count(4);
  EXPECT_EQ(vec::pairwise_dist2(m), d2_t1);
  EXPECT_EQ(vec::pairwise_dot(m), dot_t1);
  EXPECT_EQ(vec::pairwise_dist2_packed(m), packed_t1);
}

TEST(GramPairwise, PackedTriangleMatchesDenseBitwise) {
  const auto m = adversarial_matrix(129, 23);
  const std::size_t n = m.rows();
  const auto dense = vec::pairwise_dist2(m);
  const PairwiseDistances pd(m);
  ASSERT_EQ(pd.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(pd.dist2(i, j), dense[i * n + j]) << i << " " << j;
}

// ---- column panels vs the seed per-coordinate scan -------------------------

// The pre-panel Median: per coordinate, gather the column then
// nth_element — the bitwise oracle.
std::vector<float> seed_median(const common::GradientMatrix& g) {
  const std::size_t n = g.rows(), d = g.cols();
  std::vector<float> out(d);
  const std::size_t mid = n / 2;
  std::vector<float> column(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = g.at(i, j);
    std::nth_element(column.begin(), column.begin() + std::ptrdiff_t(mid),
                     column.end());
    if (n % 2 == 1) {
      out[j] = column[mid];
    } else {
      const float lo = *std::max_element(
          column.begin(), column.begin() + std::ptrdiff_t(mid));
      out[j] = 0.5f * (lo + column[mid]);
    }
  }
  return out;
}

// The pre-panel TrimmedMean: full sort, ascending accumulation.
std::vector<float> seed_trimmed_mean(const common::GradientMatrix& g,
                                     std::size_t trim) {
  const std::size_t n = g.rows(), d = g.cols();
  std::vector<float> out(d);
  std::vector<float> column(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = g.at(i, j);
    std::sort(column.begin(), column.end());
    double acc = 0.0;
    for (std::size_t i = trim; i < n - trim; ++i) acc += column[i];
    out[j] = static_cast<float>(acc / double(n - 2 * trim));
  }
  return out;
}

TEST(ColumnPanels, MedianMatchesSeedBitwise) {
  agg::GarContext ctx;
  agg::MedianAggregator median;
  for (const std::size_t n : {5ul, 8ul, 33ul}) {
    // d = 130 spans two 64-wide panels plus a partial tile; duplicated
    // values exercise nth_element tie handling.
    auto m = gaussian_matrix(n, 130, 0.0, 1.0, 31 + n);
    for (std::size_t i = 0; i + 1 < n; i += 2) m.at(i, 7) = m.at(i + 1, 7);
    const auto expected = seed_median(m);
    const auto got = median.aggregate(m, ctx);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t j = 0; j < got.size(); ++j)
      EXPECT_EQ(got[j], expected[j]) << "n=" << n << " j=" << j;
  }
}

TEST(ColumnPanels, TrimmedMeanMatchesSeedBitwise) {
  agg::MedianAggregator median;
  for (const std::size_t n : {5ul, 9ul, 24ul}) {
    for (const std::size_t trim : {0ul, 1ul, 3ul}) {
      if (n <= 2 * trim) continue;
      agg::GarContext ctx;
      ctx.assumed_byzantine = trim;
      agg::TrimmedMeanAggregator tm;
      const auto m = gaussian_matrix(n, 130, 0.5, 2.0, 41 + n + trim);
      const auto expected = seed_trimmed_mean(m, trim);
      const auto got = tm.aggregate(m, ctx);
      for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], expected[j])
            << "n=" << n << " trim=" << trim << " j=" << j;
    }
  }
}

TEST(ColumnPanels, SweepIsThreadCountInvariant) {
  ThreadGuard guard;
  agg::GarContext ctx;
  ctx.assumed_byzantine = 3;
  agg::MedianAggregator median;
  agg::TrimmedMeanAggregator tm;
  const auto m = gaussian_matrix(17, 300, 0.0, 1.0, 51);
  common::set_thread_count(1);
  const auto med_t1 = median.aggregate(m, ctx);
  const auto tm_t1 = tm.aggregate(m, ctx);
  common::set_thread_count(4);
  EXPECT_EQ(median.aggregate(m, ctx), med_t1);
  EXPECT_EQ(tm.aggregate(m, ctx), tm_t1);
}

// ---- Krum ranking / Bulyan mask satellites ---------------------------------

// Multi-Krum's selection recomputed from a dense dist2 block: each row's
// score sums its k smallest distances in ascending order (as
// PairwiseDistances::krum_score does), then a FULL sort ranks the rows
// under the aggregator's score-then-index ordering.
std::vector<std::size_t> krum_selection(const std::vector<double>& d2,
                                        std::size_t n, std::size_t byz) {
  const std::size_t mm = std::min(byz, (n - 1) / 2);
  const std::size_t k = std::max<std::size_t>(1, n - mm - 2);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) row.push_back(d2[i * n + j]);
    std::sort(row.begin(), row.end());
    for (std::size_t t = 0; t < std::min(k, row.size()); ++t)
      scores[i] += row[t];
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b] || (scores[a] == scores[b] && a < b);
  });
  return {order.begin(), order.begin() + std::ptrdiff_t(std::min(k, n))};
}

TEST(KrumRanking, PartialSortSelectionMatchesFullSortOracle) {
  const auto m = gaussian_matrix(20, 64, 0.0, 1.0, 61);
  agg::GarContext ctx;
  ctx.assumed_byzantine = 4;
  agg::MultiKrumAggregator krum;
  krum.aggregate(m, ctx);
  EXPECT_EQ(krum.last_selected(),
            krum_selection(vec::pairwise_dist2(m), m.rows(),
                           ctx.assumed_byzantine));
}

TEST(BulyanMask, ExcludeMaskSelectionMatchesEraseLoopBitwise) {
  auto m = gaussian_matrix(14, 48, 1.0, 0.3, 71);
  for (auto& v : m.row(0)) v = 50.0f;  // one blatant outlier
  agg::GarContext ctx;
  ctx.assumed_byzantine = 2;
  agg::BulyanAggregator bulyan;
  const auto out = bulyan.aggregate(m, ctx);
  const auto selected = bulyan.last_selected();

  // Oracle: the seed's erase-based iterative-Krum loop over the same
  // PairwiseDistances.
  const std::size_t n = m.rows();
  const std::size_t mm = std::min(ctx.assumed_byzantine, (n - 1) / 2);
  const std::size_t theta = std::max<std::size_t>(1, n - 2 * mm);
  const PairwiseDistances pd(m);
  std::vector<std::size_t> remaining(n);
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<std::size_t> expected;
  std::vector<double> row;
  while (expected.size() < theta && !remaining.empty()) {
    const std::size_t r = remaining.size();
    const std::size_t k =
        std::max<std::size_t>(1, r > mm + 2 ? r - mm - 2 : 1);
    double best_score = std::numeric_limits<double>::max();
    std::size_t best_pos = 0;
    for (std::size_t a = 0; a < r; ++a) {
      row.clear();
      for (std::size_t b = 0; b < r; ++b)
        if (b != a) row.push_back(pd.dist2(remaining[a], remaining[b]));
      const std::size_t kk = std::min(k, row.size());
      std::partial_sort(row.begin(), row.begin() + std::ptrdiff_t(kk),
                        row.end());
      double score = 0.0;
      for (std::size_t t = 0; t < kk; ++t) score += row[t];
      if (score < best_score) {
        best_score = score;
        best_pos = a;
      }
    }
    expected.push_back(remaining[best_pos]);
    remaining.erase(remaining.begin() + std::ptrdiff_t(best_pos));
  }
  EXPECT_EQ(selected, expected);
  EXPECT_EQ(out.size(), m.cols());
  // The outlier row must not survive phase 1.
  EXPECT_EQ(std::count(selected.begin(), selected.end(), 0u), 0);
}

// ---- aggregate-level Gram behaviour ---------------------------------------

TEST(GramAggregation, KrumAndBulyanAreThreadCountInvariant) {
  ThreadGuard guard;
  const auto m = adversarial_matrix(200, 81);
  agg::GarContext ctx;
  ctx.assumed_byzantine = 2;
  agg::MultiKrumAggregator krum;
  agg::BulyanAggregator bulyan;
  common::set_thread_count(1);
  const auto krum_t1 = krum.aggregate(m, ctx);
  const auto bulyan_t1 = bulyan.aggregate(m, ctx);
  common::set_thread_count(4);
  EXPECT_EQ(krum.aggregate(m, ctx), krum_t1);
  EXPECT_EQ(bulyan.aggregate(m, ctx), bulyan_t1);
}

TEST(GramAggregation, GramAndOraclePickTheSameKrumSelectionOnSeparatedInputs) {
  // Benign cluster + blatant outliers: the selection decision has a wide
  // margin, so the Gram aggregator and the oracle's direct distances
  // must agree exactly on *which* gradients survive even though scores
  // differ in low-order bits.
  auto m = gaussian_matrix(12, 100, 0.5, 0.1, 91);
  for (auto& v : m.row(10)) v = 300.0f;
  for (auto& v : m.row(11)) v = -300.0f;
  agg::GarContext ctx;
  ctx.assumed_byzantine = 2;
  agg::MultiKrumAggregator krum;
  krum.aggregate(m, ctx);
  const auto sel_gram = krum.last_selected();
  EXPECT_EQ(sel_gram, krum_selection(oracle::pairwise_dist2(m), m.rows(),
                                     ctx.assumed_byzantine));
  for (const auto idx : sel_gram) EXPECT_LT(idx, 10u);
}

// ---- quantile selection satellite ------------------------------------------

TEST(QuantileSelection, MatchesSortOracleExactly) {
  Rng rng(101);
  for (const std::size_t n : {1ul, 2ul, 7ul, 100ul}) {
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.normal(0.0, 10.0);
    // Duplicates stress tie handling in the selection path.
    if (n >= 4) xs[n / 2] = xs[0];
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0}) {
      // Sort-based oracle (the seed implementation).
      std::vector<double> v(xs);
      std::sort(v.begin(), v.end());
      const std::size_t last = v.size() - 1;
      const double pos = q * double(last);
      const std::size_t lo =
          std::min(static_cast<std::size_t>(std::floor(pos)), last);
      const std::size_t hi =
          std::min(static_cast<std::size_t>(std::ceil(pos)), last);
      const double frac = pos - double(lo);
      const double expected = v[lo] * (1.0 - frac) + v[hi] * frac;
      EXPECT_EQ(stats::quantile(xs, q), expected) << "n=" << n << " q=" << q;
    }
  }
  EXPECT_TRUE(std::isnan(stats::quantile({}, 0.5)));
}

}  // namespace
}  // namespace signguard
