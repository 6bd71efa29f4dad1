// Property sweeps (TEST_P): algebraic invariants every aggregation rule
// must satisfy across shapes — translation/scale equivariance, coordinate
// bounds, permutation invariance — plus attack-parameter sweeps (LIE's z,
// ByzMean's inner attack, Min-Max/Min-Sum perturbation modes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "aggregators/baselines.h"
#include "attacks/byzmean.h"
#include "attacks/lie.h"
#include "attacks/minmax_minsum.h"
#include "attacks/simple_attacks.h"
#include "common/gradient_matrix.h"
#include "common/vecops.h"
#include "core/signguard.h"

namespace signguard {
namespace {

common::GradientMatrix gaussian_grads(std::size_t n, std::size_t d,
                                      double mean, double stddev,
                                      std::uint64_t seed) {
  Rng rng(seed);
  common::GradientMatrix out(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = rng.normal_vector(d, mean, stddev);
    std::ranges::copy(row, out.row(i).begin());
  }
  return out;
}

// Every coordinate of every row, for whole-matrix element-wise edits.
std::span<float> elements(common::GradientMatrix& g) {
  return {g.data(), g.rows() * g.cols()};
}

std::unique_ptr<agg::Aggregator> make_gar(const std::string& name) {
  using namespace agg;
  if (name == "Mean") return std::make_unique<MeanAggregator>();
  if (name == "TrMean") return std::make_unique<TrimmedMeanAggregator>();
  if (name == "Median") return std::make_unique<MedianAggregator>();
  if (name == "GeoMed") return std::make_unique<GeoMedAggregator>();
  if (name == "Multi-Krum") return std::make_unique<MultiKrumAggregator>();
  if (name == "Bulyan") return std::make_unique<BulyanAggregator>();
  if (name == "DnC") return std::make_unique<DnCAggregator>();
  return std::make_unique<core::SignGuard>(core::plain_config());
}

const std::vector<std::string>& all_gars() {
  static const std::vector<std::string> kGars = {
      "Mean",   "TrMean", "Median",    "GeoMed",
      "Multi-Krum", "Bulyan", "DnC",       "SignGuard"};
  return kGars;
}

// ---- shape robustness: every GAR on every degenerate population ------------

class ShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(ShapeSweep, FiniteOutputRightDimension) {
  const auto [name, n] = GetParam();
  for (const std::size_t d : {1u, 3u, 64u}) {
    const auto g = gaussian_grads(n, d, 0.1, 1.0, 17 + n + d);
    Rng rng(3);
    agg::GarContext ctx;
    ctx.assumed_byzantine = n > 4 ? n / 5 : 0;
    ctx.rng = &rng;
    auto gar = make_gar(name);
    const auto out = gar->aggregate(g, ctx);
    ASSERT_EQ(out.size(), d) << name << " n=" << n << " d=" << d;
    for (const float v : out)
      ASSERT_TRUE(std::isfinite(v)) << name << " n=" << n << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GarsTimesPopulations, ShapeSweep,
    ::testing::Combine(::testing::ValuesIn(all_gars()),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{5}, std::size_t{20})),
    [](const auto& info) {
      auto name = std::get<0>(info.param) + "_n" +
                  std::to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---- equivariances for the coordinate-wise / geometric rules ---------------

class EquivarianceSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(EquivarianceSweep, TranslationEquivariant) {
  const auto name = GetParam();
  const auto g = gaussian_grads(11, 16, 0.0, 1.0, 23);
  auto shifted = g;
  for (auto& v : elements(shifted)) v += 2.5f;
  Rng r1(5), r2(5);
  agg::GarContext c1, c2;
  c1.assumed_byzantine = c2.assumed_byzantine = 2;
  c1.rng = &r1;
  c2.rng = &r2;
  const auto base = make_gar(name)->aggregate(g, c1);
  const auto moved = make_gar(name)->aggregate(shifted, c2);
  for (std::size_t j = 0; j < 16; ++j)
    EXPECT_NEAR(moved[j], base[j] + 2.5f, 1e-3) << name;
}

TEST_P(EquivarianceSweep, PositiveScaleEquivariant) {
  const auto name = GetParam();
  const auto g = gaussian_grads(11, 16, 0.3, 1.0, 29);
  auto scaled = g;
  vec::scale(elements(scaled), 3.0);
  Rng r1(5), r2(5);
  agg::GarContext c1, c2;
  c1.assumed_byzantine = c2.assumed_byzantine = 2;
  c1.rng = &r1;
  c2.rng = &r2;
  const auto base = make_gar(name)->aggregate(g, c1);
  const auto big = make_gar(name)->aggregate(scaled, c2);
  for (std::size_t j = 0; j < 16; ++j)
    EXPECT_NEAR(big[j], 3.0f * base[j], 2e-3) << name;
}

// Krum/Bulyan/DnC also satisfy these but select stochastically under
// ties; the coordinate-wise and geometric rules must satisfy them exactly.
INSTANTIATE_TEST_SUITE_P(CoordinateRules, EquivarianceSweep,
                         ::testing::Values("Mean", "TrMean", "Median",
                                           "GeoMed"));

TEST(CoordinateBounds, RobustRulesStayInsideValueEnvelope) {
  // Coordinate-wise robust rules must output values within the
  // [min, max] envelope of the received values, per coordinate.
  const auto g = gaussian_grads(9, 32, 0.0, 2.0, 31);
  for (const auto& name : {"TrMean", "Median"}) {
    Rng rng(6);
    agg::GarContext ctx;
    ctx.assumed_byzantine = 2;
    ctx.rng = &rng;
    const auto out = make_gar(name)->aggregate(g, ctx);
    for (std::size_t j = 0; j < 32; ++j) {
      float lo = g.at(0, j), hi = g.at(0, j);
      for (std::size_t i = 0; i < g.rows(); ++i) {
        lo = std::min(lo, g.at(i, j));
        hi = std::max(hi, g.at(i, j));
      }
      EXPECT_GE(out[j], lo) << name;
      EXPECT_LE(out[j], hi) << name;
    }
  }
}

TEST(PermutationInvariance, CoordinateRulesIgnoreClientOrder) {
  const auto g = gaussian_grads(12, 24, 0.1, 1.0, 37);
  auto reversed = g.row_views();
  std::reverse(reversed.begin(), reversed.end());
  const auto shuffled = common::GradientMatrix::from_views(reversed);
  for (const auto& name : {"Mean", "TrMean", "Median", "GeoMed"}) {
    agg::GarContext ctx;
    ctx.assumed_byzantine = 3;
    const auto a = make_gar(name)->aggregate(g, ctx);
    const auto b = make_gar(name)->aggregate(shuffled, ctx);
    for (std::size_t j = 0; j < 24; ++j) EXPECT_NEAR(a[j], b[j], 1e-5);
  }
}

// ---- SignGuard norm-clipping convexity --------------------------------------

TEST(ClippedMeanProperty, OutputNormNeverExceedsBound) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto g = gaussian_grads(15, 64, 0.0, double(seed), seed);
    std::vector<std::size_t> sel(15);
    for (std::size_t i = 0; i < 15; ++i) sel[i] = i;
    const double bound = 0.7;
    const auto out = core::clipped_mean(g, sel, bound);
    EXPECT_LE(vec::norm(out), bound + 1e-6);
  }
}

// ---- attack-parameter sweeps -------------------------------------------------

TEST(LieSweep, StrongerZMeansFewerMaliciousKept) {
  const auto benign = gaussian_grads(40, 2048, 0.3, 0.8, 41);
  const auto benign_views = benign.row_views();
  auto kept_at = [&](double z) {
    const auto gm = attacks::LieAttack::craft_vector(benign_views, z);
    auto rows = benign_views;
    rows.insert(rows.end(), 10, gm);
    const auto g = common::GradientMatrix::from_views(rows);
    core::SignGuard sg(core::plain_config());
    sg.aggregate(g, agg::GarContext{});
    std::size_t kept = 0;
    for (const auto idx : sg.last_selected())
      if (idx >= 40) ++kept;
    return kept;
  };
  // A blatant LIE (large z) must never be kept MORE than a subtle one.
  EXPECT_LE(kept_at(2.0), kept_at(0.05));
  EXPECT_EQ(kept_at(2.0), 0u);
}

class ByzMeanInnerSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ByzMeanInnerSweep, MeanIdentityHoldsForEveryInnerAttack) {
  const auto inner_name = GetParam();
  std::unique_ptr<attacks::Attack> inner;
  if (inner_name == "Random")
    inner = std::make_unique<attacks::RandomAttack>(0.0, 0.5);
  else if (inner_name == "SignFlip")
    inner = std::make_unique<attacks::SignFlipAttack>();
  else
    inner = std::make_unique<attacks::LieAttack>(0.3);
  attacks::ByzMeanAttack attack(std::move(inner));

  const auto benign = gaussian_grads(16, 64, 0.1, 1.0, 43);
  const auto byz = gaussian_grads(4, 64, 0.1, 1.0, 44);
  Rng rng(45);
  const auto benign_views = benign.row_views();
  const auto byz_views = byz.row_views();
  const auto out = attack.craft({.benign_grads = benign_views,
                                 .byz_honest_grads = byz_views,
                                 .n_total = 20,
                                 .n_byzantine = 4,
                                 .rng = &rng});
  std::vector<attacks::GradientView> all(out.begin(), out.end());
  all.insert(all.end(), benign_views.begin(), benign_views.end());
  const auto mean = vec::mean_of(all);
  for (std::size_t j = 0; j < 64; ++j)
    EXPECT_NEAR(mean[j], out[0][j], 1e-3) << inner_name;
}

INSTANTIATE_TEST_SUITE_P(InnerAttacks, ByzMeanInnerSweep,
                         ::testing::Values("Random", "SignFlip", "LIE"));

class PerturbationSweep
    : public ::testing::TestWithParam<attacks::Perturbation> {};

TEST_P(PerturbationSweep, MinMaxConstraintHoldsForEveryPerturbation) {
  const auto p = GetParam();
  const auto benign = gaussian_grads(12, 128, 0.2, 1.0, 47);
  const auto byz = gaussian_grads(3, 128, 0.2, 1.0, 48);
  Rng rng(49);
  const auto benign_views = benign.row_views();
  const auto byz_views = byz.row_views();
  attacks::MinMaxAttack attack(p);
  const auto out = attack.craft({.benign_grads = benign_views,
                                 .byz_honest_grads = byz_views,
                                 .n_total = 15,
                                 .n_byzantine = 3,
                                 .rng = &rng});
  double max_to_benign = 0.0, max_pair = 0.0;
  for (std::size_t i = 0; i < benign.rows(); ++i) {
    max_to_benign = std::max(max_to_benign, vec::dist2(out[0], benign.row(i)));
    for (std::size_t j = i + 1; j < benign.rows(); ++j)
      max_pair = std::max(max_pair, vec::dist2(benign.row(i), benign.row(j)));
  }
  EXPECT_LE(max_to_benign, max_pair * (1.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    AllPerturbations, PerturbationSweep,
    ::testing::Values(attacks::Perturbation::kInverseStd,
                      attacks::Perturbation::kInverseUnit,
                      attacks::Perturbation::kInverseSign));

}  // namespace
}  // namespace signguard
