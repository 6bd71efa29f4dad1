// Baseline GAR tests: exact behaviour on small hand-built inputs, then
// parameterized robustness sweeps — every robust rule must stay close to
// the benign mean when a minority of gradients is arbitrarily corrupted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aggregators/baselines.h"
#include "aggregators/signsgd.h"
#include "common/rng.h"
#include "common/vecops.h"

namespace signguard::agg {
namespace {

using common::GradientMatrix;

// n rows drawn in order from one Rng: a fixture's first k rows do not
// depend on how many rows follow, so tests overwrite trailing rows with
// outliers.
GradientMatrix gaussian_grads(std::size_t n, std::size_t d, double mean,
                              double stddev, std::uint64_t seed) {
  Rng rng(seed);
  GradientMatrix out(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = rng.normal_vector(d, mean, stddev);
    std::ranges::copy(row, out.row(i).begin());
  }
  return out;
}

GradientMatrix matrix(const std::vector<std::vector<float>>& rows) {
  return GradientMatrix::from_vectors(rows);
}

GarContext ctx_with(std::size_t m, Rng* rng = nullptr) {
  GarContext ctx;
  ctx.assumed_byzantine = m;
  ctx.rng = rng;
  return ctx;
}

TEST(Mean, ExactAverage) {
  const auto g = matrix({{1.0f, 2.0f}, {3.0f, 6.0f}});
  MeanAggregator mean;
  const auto out = mean.aggregate(g, ctx_with(0));
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 4.0f);
}

TEST(TrimmedMean, RemovesExtremesPerCoordinate) {
  const auto g = matrix({{100.0f}, {1.0f}, {2.0f}, {3.0f}, {-100.0f}});
  TrimmedMeanAggregator tm;
  const auto out = tm.aggregate(g, ctx_with(1));
  EXPECT_FLOAT_EQ(out[0], 2.0f);
}

TEST(TrimmedMean, ClampsOversizedTrim) {
  const auto g = matrix({{1.0f}, {2.0f}, {3.0f}});
  TrimmedMeanAggregator tm;
  const auto out = tm.aggregate(g, ctx_with(10));  // trim clamped to 1
  EXPECT_FLOAT_EQ(out[0], 2.0f);
}

TEST(Median, OddAndEvenCounts) {
  MedianAggregator med;
  EXPECT_FLOAT_EQ(
      med.aggregate(matrix({{1.0f}, {9.0f}, {2.0f}}), ctx_with(0))[0], 2.0f);
  EXPECT_FLOAT_EQ(med.aggregate(matrix({{1.0f}, {2.0f}, {3.0f}, {10.0f}}),
                                ctx_with(0))[0],
                  2.5f);
}

TEST(Median, RobustToMinorityOutliers) {
  auto g = gaussian_grads(13, 32, 1.0, 0.1, 1);
  for (std::size_t i = 9; i < 13; ++i) std::ranges::fill(g.row(i), 1e6f);
  MedianAggregator med;
  const auto out = med.aggregate(g, ctx_with(4));
  for (const float v : out) EXPECT_NEAR(v, 1.0f, 0.5f);
}

TEST(GeoMed, MatchesMedianOn1D) {
  // In 1-D the geometric median is the coordinate median.
  GeoMedAggregator gm;
  EXPECT_NEAR(gm.aggregate(matrix({{0.0f}, {1.0f}, {10.0f}}), ctx_with(0))[0],
              1.0f, 1e-3);
}

TEST(GeoMed, MinimizesSumOfDistances) {
  const auto g = gaussian_grads(15, 8, 0.0, 1.0, 2);
  GeoMedAggregator gm;
  const auto med = gm.aggregate(g, ctx_with(0));
  auto cost = [&](std::span<const float> x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < g.rows(); ++i) acc += vec::dist(g.row(i), x);
    return acc;
  };
  const double med_cost = cost(med);
  // The geometric median must beat the mean and every input point.
  EXPECT_LE(med_cost, cost(vec::mean_of(g)) + 1e-6);
  for (std::size_t i = 0; i < g.rows(); ++i)
    EXPECT_LE(med_cost, cost(g.row(i)) + 1e-6);
}

TEST(GeoMed, RobustToLargeOutliers) {
  auto g = gaussian_grads(17, 16, 2.0, 0.1, 3);
  for (std::size_t i = 12; i < 17; ++i) std::ranges::fill(g.row(i), -1e5f);
  GeoMedAggregator gm;
  const auto out = gm.aggregate(g, ctx_with(5));
  for (const float v : out) EXPECT_NEAR(v, 2.0f, 0.5f);
}

TEST(MultiKrum, PicksBenignUnderBlatantOutliers) {
  auto g = gaussian_grads(10, 16, 0.5, 0.1, 4);
  std::ranges::fill(g.row(8), 500.0f);
  std::ranges::fill(g.row(9), -500.0f);
  MultiKrumAggregator krum;
  const auto out = krum.aggregate(g, ctx_with(2));
  for (const float v : out) EXPECT_NEAR(v, 0.5f, 0.3f);
  // Outlier indices 8 and 9 must not be selected.
  for (const auto idx : krum.last_selected()) EXPECT_LT(idx, 8u);
}

TEST(MultiKrum, SelectionSizeMatchesRule) {
  const auto g = gaussian_grads(10, 8, 0.0, 1.0, 5);
  MultiKrumAggregator krum;
  krum.aggregate(g, ctx_with(2));
  // c = n - m - 2 = 6.
  EXPECT_EQ(krum.last_selected().size(), 6u);
}

TEST(MultiKrum, NoByzantineStillAverages) {
  const auto g = gaussian_grads(6, 8, 1.0, 0.01, 6);
  MultiKrumAggregator krum;
  const auto out = krum.aggregate(g, ctx_with(0));
  for (const float v : out) EXPECT_NEAR(v, 1.0f, 0.1f);
}

TEST(Bulyan, SelectsThetaGradients) {
  const auto g = gaussian_grads(14, 8, 0.0, 1.0, 7);
  BulyanAggregator bulyan;
  bulyan.aggregate(g, ctx_with(2));
  // theta = n - 2m = 10.
  EXPECT_EQ(bulyan.last_selected().size(), 10u);
}

TEST(Bulyan, RobustToCoordinateSpikes) {
  // Outlier hides a huge value in one coordinate; Bulyan's trimmed
  // coordinate step must suppress it.
  auto g = gaussian_grads(14, 8, 1.0, 0.05, 8);
  for (const std::size_t i : {12, 13}) {
    std::ranges::copy(g.row(0), g.row(i).begin());
    g.at(i, 3) = 1e6f;
  }
  BulyanAggregator bulyan;
  const auto out = bulyan.aggregate(g, ctx_with(2));
  EXPECT_NEAR(out[3], 1.0f, 0.5f);
}

TEST(DnC, FiltersCollinearOutliers) {
  Rng rng(9);
  auto g = gaussian_grads(20, 64, 0.0, 0.2, 10);
  // Malicious gradients displaced along a common direction: exactly the
  // signal DnC's top-singular-direction projection detects.
  for (std::size_t i = 16; i < 20; ++i) std::ranges::fill(g.row(i), 5.0f);
  DnCAggregator dnc;
  const auto out = dnc.aggregate(g, ctx_with(4, &rng));
  for (const float v : out) EXPECT_NEAR(v, 0.0f, 0.3f);
  // At most a benign minority may be removed; the mean of kept gradients
  // must exclude most of the planted outliers.
  std::size_t evil_kept = 0;
  for (const auto idx : dnc.last_selected())
    if (idx >= 16) ++evil_kept;
  EXPECT_LE(evil_kept, 1u);
}

TEST(DnC, KeepsEveryoneWhenNoByzantineAssumed) {
  Rng rng(11);
  const auto g = gaussian_grads(8, 32, 0.0, 1.0, 12);
  DnCAggregator dnc;
  dnc.aggregate(g, ctx_with(0, &rng));
  EXPECT_EQ(dnc.last_selected().size(), 8u);
}

TEST(SignSgd, MajorityVotePerCoordinate) {
  const auto g = matrix(
      {{1.0f, -3.0f, 0.0f}, {0.5f, -1.0f, 2.0f}, {-2.0f, 4.0f, 5.0f}});
  SignSgdMajorityAggregator sign_sgd(1.0);
  const auto out = sign_sgd.aggregate(g, GarContext{});
  EXPECT_FLOAT_EQ(out[0], 1.0f);   // votes +1 +1 -1 -> +
  EXPECT_FLOAT_EQ(out[1], -1.0f);  // votes -1 -1 +1 -> -
  EXPECT_FLOAT_EQ(out[2], 1.0f);   // votes 0 +1 +1 -> +
}

TEST(SignSgd, TieEmitsZeroAndStepScales) {
  SignSgdMajorityAggregator sign_sgd(0.25);
  EXPECT_FLOAT_EQ(
      sign_sgd.aggregate(matrix({{1.0f}, {-1.0f}}), GarContext{})[0], 0.0f);
  EXPECT_FLOAT_EQ(
      sign_sgd.aggregate(matrix({{1.0f}, {2.0f}}), GarContext{})[0], 0.25f);
}

TEST(SignSgd, FaultTolerantToMagnitudeInflation) {
  // The property the paper cites from Bernstein et al.: magnitudes are
  // discarded, so a minority sending huge values cannot move the vote.
  auto g = gaussian_grads(13, 32, 0.5, 0.1, 77);
  for (std::size_t i = 9; i < 13; ++i) std::ranges::fill(g.row(i), -1e9f);
  SignSgdMajorityAggregator sign_sgd(1.0);
  const auto out = sign_sgd.aggregate(g, GarContext{});
  for (const float v : out) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(SingleGradient, AllRulesReturnIt) {
  const auto g = matrix({{1.0f, -2.0f, 3.0f}});
  Rng rng(13);
  MeanAggregator mean;
  TrimmedMeanAggregator tm;
  MedianAggregator med;
  GeoMedAggregator geo;
  MultiKrumAggregator krum;
  BulyanAggregator bulyan;
  DnCAggregator dnc;
  for (Aggregator* a : std::initializer_list<Aggregator*>{
           &mean, &tm, &med, &geo, &krum, &bulyan, &dnc}) {
    const auto out = a->aggregate(g, ctx_with(0, &rng));
    for (std::size_t j = 0; j < g.cols(); ++j)
      EXPECT_NEAR(out[j], g.at(0, j), 1e-4) << a->name();
  }
}

// ---- Parameterized robustness sweep ----------------------------------------
// Every robust rule, told the true Byzantine count, must keep the
// aggregate near the benign mean under each corruption pattern.

struct RobustCase {
  std::string gar;
  std::string corruption;
};

class RobustnessSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  static std::unique_ptr<Aggregator> make(const std::string& name) {
    if (name == "TrMean") return std::make_unique<TrimmedMeanAggregator>();
    if (name == "Median") return std::make_unique<MedianAggregator>();
    if (name == "GeoMed") return std::make_unique<GeoMedAggregator>();
    if (name == "Multi-Krum") return std::make_unique<MultiKrumAggregator>();
    if (name == "Bulyan") return std::make_unique<BulyanAggregator>();
    return std::make_unique<DnCAggregator>();
  }

  static void corrupt(const std::string& kind, GradientMatrix& g,
                      std::size_t m, Rng& rng) {
    for (std::size_t i = 0; i < m; ++i) {
      if (kind == "huge") {
        std::ranges::fill(g.row(i), 1e4f);
      } else if (kind == "negated") {
        vec::scale(g.row(i), -50.0);
      } else if (kind == "random") {
        std::ranges::copy(rng.normal_vector(g.cols(), 0.0, 100.0),
                          g.row(i).begin());
      } else {  // zero
        std::ranges::fill(g.row(i), 0.0f);
      }
    }
  }
};

TEST_P(RobustnessSweep, StaysNearBenignMean) {
  const auto [gar_name, corruption] = GetParam();
  Rng rng(99);
  const std::size_t n = 20, m = 4, d = 32;
  auto g = gaussian_grads(n, d, 1.0, 0.2, 100);
  const auto views = g.row_views();
  const auto benign_mean = vec::mean_of(std::span(views).subspan(m));
  corrupt(corruption, g, m, rng);
  auto gar = make(gar_name);
  const auto out = gar->aggregate(g, ctx_with(m, &rng));
  // The corrupted coordinates are displaced by >= 50; robust rules must
  // land within a small ball of the benign mean.
  EXPECT_LT(vec::dist(out, benign_mean), 2.0)
      << gar_name << " under " << corruption;
}

INSTANTIATE_TEST_SUITE_P(
    AllRulesAllCorruptions, RobustnessSweep,
    ::testing::Combine(::testing::Values("TrMean", "Median", "GeoMed",
                                         "Multi-Krum", "Bulyan", "DnC"),
                       ::testing::Values("huge", "negated", "random",
                                         "zero")),
    [](const auto& info) {
      auto name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace signguard::agg
