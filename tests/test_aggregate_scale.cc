// Aggregation-at-scale suite: the Gram (GEMM-backed) pairwise kernels vs
// the direct pair loops of tests/oracles.h, the packed-triangle
// PairwiseDistances, the sorted-tile coordinate statistics (TrMean,
// Median, Bulyan stage 2) vs their full-sort oracles, and the
// selection-based quantile/Krum-ranking satellites. Gram-vs-direct
// comparisons are tolerance-based (float GEMM vs double pair loops);
// everything else — the Gram triangle vs the oracle GEMM loop, thread
// counts, sorted tiles vs full sorts — must be bitwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "aggregators/baselines.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "common/quantiles.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "nn/gemm.h"
#include "obs/metrics.h"
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
  const PairwiseDistances d2_gram(m);
  const auto dot_gram = vec::pairwise_dot(m);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Relative tolerance scaled by the row norms: the Gram identity
      // loses up to ~norm^2 * 1e-7 to float rounding/cancellation.
      const double scale =
          std::max({1.0, dot_direct[i * n + i], dot_direct[j * n + j]});
      EXPECT_NEAR(d2_gram.dist2(i, j), d2_direct[i * n + j], 1e-5 * scale)
          << "d2 (" << i << ", " << j << ")";
      EXPECT_NEAR(dot_gram[i * n + j], dot_direct[i * n + j], 1e-5 * scale)
          << "dot (" << i << ", " << j << ")";
      EXPECT_GE(d2_gram.dist2(i, j), 0.0) << "clamped at zero";
    }
  }
  // Zero rows: every quantity involving them is exact on both sides.
  EXPECT_EQ(d2_gram.dist2(4, 5), 0.0);
  EXPECT_EQ(dot_gram[4 * n + 4], 0.0);
}

TEST(GramPairwise, GramIsThreadCountInvariant) {
  ThreadGuard guard;
  const auto m = adversarial_matrix(193, 22);
  common::set_thread_count(1);
  const auto dot_t1 = vec::pairwise_dot(m);
  const auto packed_t1 = vec::pairwise_dist2_packed(m);
  common::set_thread_count(4);
  EXPECT_EQ(vec::pairwise_dot(m), dot_t1);
  EXPECT_EQ(vec::pairwise_dist2_packed(m), packed_t1);
}

// Every Gram entry on or above the diagonal is the GEMM contract's float
// accumulator, bit for bit the oracle's gemm_nt(G, G): across the 8x8
// tile edges (n = 7, 9, 15, 17 end in a partial 8-row panel, whose A
// lanes are the zero-padded lanes of the last B panel; 8 and 16 do not),
// the pairing of row panels into worker shares, 64-row boundaries, and k
// run as one slab (d up to kGemmSlabK + 1 here) or as several carried in
// C (d = 8,554, the grid MLP's size). gemm_flops keeps billing the 64-row
// block schedule the goldens pin.
TEST(GramPairwise, UpperTriangleMatchesOracleGemmBitwise) {
  ThreadGuard guard;
  const std::size_t ns[] = {1,  2,  3,  4,  5,  7,  8,   9,
                            15, 16, 17, 63, 64, 65, 130, 187};
  const std::size_t ds[] = {1, 13, nn::kGemmSlabK - 1, nn::kGemmSlabK + 1,
                            8554};
  std::uint64_t seed = 300;
  for (const std::size_t n : ns) {
    for (const std::size_t d : ds) {
      const auto m = gaussian_matrix(n, d, 0.1, 1.0, ++seed);
      std::vector<float> want(n * n);
      oracle::gemm_nt(n, n, d, m.data(), d, m.data(), d, want.data(), n,
                      /*accumulate=*/false);
      for (const std::size_t threads : {1, 4}) {
        common::set_thread_count(threads);
        const auto dot = vec::pairwise_dot(m);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = i; j < n; ++j) {
            const double expected = want[i * n + j];
            mismatches += std::bit_cast<std::uint64_t>(dot[i * n + j]) !=
                          std::bit_cast<std::uint64_t>(expected);
          }
        EXPECT_EQ(mismatches, 0u)
            << "n=" << n << " d=" << d << " threads=" << threads;
      }
    }
  }

  // 2 * (64 * 130 + 64 * 66 + 2 * 2) * 8,554: rows [0, 64), [64, 128)
  // and [128, 130) against columns [i0, 130).
  const auto m = gaussian_matrix(130, 8554, 0.1, 1.0, 399);
  obs::MetricsRegistry reg(false);
  {
    obs::ScopedMetrics scope(&reg);
    reg.begin_round(0);
    vec::pairwise_dist2_packed(m);
    reg.end_round();
  }
  std::uint64_t flops = 0;
  for (const auto& stage : reg.totals().counters)
    flops += stage[std::size_t(obs::Counter::kGemmFlops)];
  EXPECT_EQ(flops, 214'671'184u);
}

// ---- sorted column tiles vs the full-sort oracles --------------------------

// Cohorts around the network's power-of-two boundaries and the 64-column
// tile width.
constexpr std::size_t kCohorts[] = {1,  2,  3,   10,  50, 63,
                                    64, 65, 255, 256, 257};

// d = 130: two full 64-column tiles and a partial one. Every third row
// repeats the row before it. Column 5 holds signed zeros only, column 6
// zeros and denormals among normals; with `non_finite`, columns 70 and
// 129 cycle through every special value, ±inf and NaN of both signs
// included. With `grid`, values are rounded to multiples of 1/4 so
// distances to a column median tie all the time.
common::GradientMatrix panel_matrix(std::size_t n, std::uint64_t seed,
                                    bool non_finite, bool grid) {
  auto m = gaussian_matrix(n, 130, 0.0, 1.0, seed);
  if (grid)
    for (std::size_t i = 0; i < n; ++i)
      for (auto& v : m.row(i)) v = std::round(v * 4.0f) / 4.0f;
  for (std::size_t i = 2; i < n; i += 3)
    std::ranges::copy(m.row(i - 1), m.row(i).begin());
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, 1e-40f, -1e-40f, 1e-45f,
                            kInf, -kInf, kNaN,   -kNaN};
  for (std::size_t i = 0; i < n; ++i) {
    m.at(i, 5) = i % 2 == 0 ? -0.0f : 0.0f;
    if (i % 5 != 0) m.at(i, 6) = specials[i % 5];
    if (!non_finite) continue;
    m.at(i, 70) = specials[(7 * i) % 9];
    if (i % 2 == 0) m.at(i, 129) = specials[(i / 2) % 9];
  }
  return m;
}

// An n x 1 matrix holding `values`.
common::GradientMatrix column_matrix(std::initializer_list<float> values) {
  common::GradientMatrix m(values.size(), 1);
  std::size_t i = 0;
  for (const float v : values) m.at(i++, 0) = v;
  return m;
}

// Bitwise equality, so zero signs count; any two NaNs are equal, since
// the sign of a NaN produced from two NaN operands depends on operand
// order, which the compiler may swap.
void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t j = 0; j < got.size(); ++j) {
    if (std::isnan(got[j]) && std::isnan(want[j])) continue;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[j]),
              std::bit_cast<std::uint32_t>(want[j]))
        << what << " j=" << j << ": " << got[j] << " vs " << want[j];
  }
}

TEST(ColumnPanels, MedianMatchesOracleBitwise) {
  ThreadGuard guard;
  agg::MedianAggregator median;
  for (const std::size_t n : kCohorts) {
    const auto m = panel_matrix(n, 31 + n, /*non_finite=*/true, false);
    const auto expected = oracle::median(m);
    for (const std::size_t threads : {1ul, 4ul}) {
      common::set_thread_count(threads);
      expect_same_bits(median.aggregate(m, {}), expected,
                       "n=" + std::to_string(n) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(ColumnPanels, TrimmedMeanMatchesOracleBitwise) {
  ThreadGuard guard;
  // Known answer: the extremes go, 1 + 2 + 3 stay.
  EXPECT_EQ(oracle::trimmed_mean(column_matrix({100, 1, 2, 3, -100}), 1),
            std::vector<float>{2.0f});
  agg::TrimmedMeanAggregator tm;
  for (const std::size_t n : kCohorts) {
    const auto m = panel_matrix(n, 41 + n, /*non_finite=*/true, false);
    for (const std::size_t byz : {0ul, 1ul, n / 5, n}) {
      agg::GarContext ctx;
      ctx.assumed_byzantine = byz;
      const auto expected =
          oracle::trimmed_mean(m, std::min(byz, (n - 1) / 2));
      for (const std::size_t threads : {1ul, 4ul}) {
        common::set_thread_count(threads);
        expect_same_bits(tm.aggregate(m, ctx), expected,
                         "n=" + std::to_string(n) +
                             " byz=" + std::to_string(byz) +
                             " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ColumnPanels, BulyanMatchesOracleBitwise) {
  ThreadGuard guard;
  // Known answers: median 11, the 3 closest are 10, 11, 12; and on the
  // distance tie between -1 and 1 the lower value is picked.
  EXPECT_EQ(oracle::bulyan_coordinate({0.0f, 10.0f, 11.0f, 12.0f, 100.0f}, 3),
            11.0f);
  EXPECT_EQ(oracle::bulyan_coordinate({1.0f, 0.0f, -1.0f}, 2), -0.5f);
  agg::BulyanAggregator bulyan;
  // A run of equal distances below the median: Krum keeps the first four
  // rows, med = 0.5 * (2e-38 + 2) rounds to 1, and 1e-38, 2e-38 and 2 all
  // sit at distance 1 after rounding, so beta = 1 keeps the lowest.
  agg::GarContext two;
  two.assumed_byzantine = 2;
  EXPECT_EQ(bulyan.aggregate(column_matrix({1e-38f, 2e-38f, 2, 3, 100, 200,
                                            -100, -200}),
                             two),
            std::vector<float>{1e-38f});
  auto kept = bulyan.last_selected();
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, (std::vector<std::size_t>{0, 1, 2, 3}));
  for (const std::size_t n : kCohorts) {
    // Krum distances are not defined on inf/NaN rows; ties come from the
    // 1/4 grid, the repeated rows and the zero columns.
    const auto m = panel_matrix(n, 51 + n, /*non_finite=*/false, true);
    agg::GarContext ctx;
    ctx.assumed_byzantine = n / 5;
    for (const std::size_t threads : {1ul, 4ul}) {
      common::set_thread_count(threads);
      const auto got = bulyan.aggregate(m, ctx);
      const auto selected = bulyan.last_selected();
      const std::size_t mm = std::min(n / 5, (n - 1) / 2);
      const std::size_t beta = selected.size() > 2 * mm
                                   ? selected.size() - 2 * mm
                                   : 1;
      std::vector<float> expected(m.cols());
      std::vector<float> column(selected.size());
      for (std::size_t j = 0; j < m.cols(); ++j) {
        for (std::size_t k = 0; k < selected.size(); ++k)
          column[k] = m.at(selected[k], j);
        expected[j] = oracle::bulyan_coordinate(column, beta);
      }
      expect_same_bits(got, expected,
                       "n=" + std::to_string(n) +
                           " threads=" + std::to_string(threads));
    }
  }
}

// ---- Krum ranking / Bulyan mask satellites ---------------------------------

// Multi-Krum's selection recomputed from a packed dist2 triangle: each
// row's score sums its k smallest distances in ascending order (as
// PairwiseDistances::krum_score does), then a FULL sort ranks the rows
// under the aggregator's score-then-index ordering.
std::vector<std::size_t> krum_selection(const std::vector<double>& packed,
                                        std::size_t n, std::size_t byz) {
  const std::size_t mm = std::min(byz, (n - 1) / 2);
  const std::size_t k = std::max<std::size_t>(1, n - mm - 2);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const std::size_t lo = std::min(i, j), hi = std::max(i, j);
      row.push_back(packed[lo * (2 * n - lo - 1) / 2 + hi - lo - 1]);
    }
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
            krum_selection(vec::pairwise_dist2_packed(m), m.rows(),
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

// ---- aggregate-level Gram behaviour ----------------------------------------

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
  EXPECT_EQ(sel_gram,
            krum_selection(oracle::pairwise_dist2_packed(m), m.rows(),
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
