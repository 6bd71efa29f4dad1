// Failure-injection tests: Byzantine clients may send ARBITRARY bytes
// (Definition 2), including NaN / infinity / zero-length pathologies. The
// defense pipeline must stay finite and keep training alive. Also
// end-to-end "mini Table I" robustness properties on a small federation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "aggregators/baselines.h"
#include "attacks/attack.h"
#include "core/signguard.h"
#include "common/vecops.h"
#include "data/synth_image.h"
#include "fl/experiment.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "oracles.h"

namespace signguard {
namespace {

// n benign rows drawn from one Rng, then `poisoned` trailing rows of
// `poison` in every coordinate.
common::GradientMatrix gaussian_grads(std::size_t n, std::size_t d,
                                      double mean, double stddev,
                                      std::uint64_t seed,
                                      std::size_t poisoned = 0,
                                      float poison = 0.0f) {
  Rng rng(seed);
  common::GradientMatrix out(n + poisoned, d);
  for (std::size_t i = 0; i < n + poisoned; ++i) {
    if (i < n)
      std::ranges::copy(rng.normal_vector(d, mean, stddev), out.row(i).begin());
    else
      std::ranges::fill(out.row(i), poison);
  }
  return out;
}

bool all_finite(std::span<const float> v) {
  for (const float x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

TEST(FailureInjection, SignGuardRejectsNaNGradients) {
  const auto g = gaussian_grads(16, 512, 0.2, 0.5, 1, 4,
                                std::numeric_limits<float>::quiet_NaN());
  core::SignGuard sg(core::plain_config());
  const auto out = sg.aggregate(g, agg::GarContext{});
  // NaN norms fail the band check, so the poisoned gradients are dropped
  // by the norm filter and the aggregate stays finite.
  for (const auto idx : sg.last_selected()) EXPECT_LT(idx, 16u);
  EXPECT_TRUE(all_finite(out));
}

TEST(FailureInjection, SignGuardRejectsInfinityGradients) {
  const auto g = gaussian_grads(16, 512, 0.2, 0.5, 2, 4,
                                std::numeric_limits<float>::infinity());
  core::SignGuard sg(core::plain_config());
  const auto out = sg.aggregate(g, agg::GarContext{});
  for (const auto idx : sg.last_selected()) EXPECT_LT(idx, 16u);
  EXPECT_TRUE(all_finite(out));
}

TEST(FailureInjection, SignGuardRejectsZeroGradientsFromMinority) {
  const auto g = gaussian_grads(16, 512, 0.2, 0.5, 3, 4, 0.0f);
  core::SignGuard sg(core::plain_config());
  sg.aggregate(g, agg::GarContext{});
  // Zero norm fails the lower threshold L = 0.1.
  for (const auto idx : sg.last_selected()) EXPECT_LT(idx, 16u);
}

TEST(FailureInjection, MedianSurvivesNaNMinority) {
  // 12 benign rows, 3 rows of +NaN and 3 of -NaN. Under totalOrder +NaN
  // sorts above +inf and -NaN below -inf, so the NaN rows fill the ranks
  // at both ends: the median's middle ranks and TrMean's kept ranks
  // [trim, n - trim) stay finite while trim >= 3.
  auto g = gaussian_grads(12, 64, 0.5, 0.2, 4, 6,
                          std::numeric_limits<float>::quiet_NaN());
  for (std::size_t i = 15; i < 18; ++i)
    std::ranges::fill(g.row(i), -std::numeric_limits<float>::quiet_NaN());
  const auto bits = [](const std::vector<float>& v) {
    std::vector<std::uint32_t> out(v.size());
    std::ranges::transform(v, out.begin(), [](float x) {
      return std::bit_cast<std::uint32_t>(x);
    });
    return out;
  };
  agg::MedianAggregator median;
  const auto med = median.aggregate(g, agg::GarContext{});
  EXPECT_TRUE(all_finite(med));
  EXPECT_EQ(bits(med), bits(oracle::median(g)));
  agg::TrimmedMeanAggregator tm;
  for (const std::size_t trim : {3ul, 5ul}) {
    agg::GarContext ctx;
    ctx.assumed_byzantine = trim;
    const auto out = tm.aggregate(g, ctx);
    EXPECT_TRUE(all_finite(out)) << "trim=" << trim;
    EXPECT_EQ(bits(out), bits(oracle::trimmed_mean(g, trim)))
        << "trim=" << trim;
  }
}

// A Byzantine attack that sends NaN payloads through the full trainer.
class NaNAttack final : public attacks::Attack {
 public:
  std::vector<std::vector<float>> craft(
      const attacks::AttackContext& ctx) override {
    const std::size_t d =
        ctx.benign_grads.empty() ? 0 : ctx.benign_grads.front().size();
    return std::vector<std::vector<float>>(
        ctx.n_byzantine,
        std::vector<float>(d, std::numeric_limits<float>::quiet_NaN()));
  }
  std::string name() const override { return "NaN"; }
};

TEST(FailureInjection, TrainingSurvivesNaNAttackWithSignGuard) {
  data::SynthImageConfig dcfg;
  dcfg.train_per_class = 40;
  dcfg.test_per_class = 10;
  const auto tt = data::make_synth_image(dcfg);
  fl::TrainerConfig cfg;
  cfg.n_clients = 20;
  cfg.byzantine_frac = 0.2;
  cfg.rounds = 30;
  cfg.batch_size = 8;
  cfg.lr = 0.2;
  cfg.eval_every = 10;
  cfg.eval_max_samples = 0;
  fl::Trainer trainer(
      tt, [](std::uint64_t seed) { return nn::make_mlp(256, 16, 10, seed); },
      cfg);
  NaNAttack attack;
  const auto res = trainer.run(
      attack, std::make_unique<core::SignGuard>(core::plain_config()));
  EXPECT_GT(res.best_accuracy, 50.0);
  EXPECT_TRUE(std::isfinite(res.final_accuracy));
  EXPECT_DOUBLE_EQ(res.selection.malicious_rate, 0.0);
}

// ---- mini Table I property: SignGuard stays near baseline ------------------

class MiniTableSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(MiniTableSweep, SignGuardWithinMarginOfBaseline) {
  const std::string attack_name = GetParam();
  data::SynthImageConfig dcfg;
  dcfg.train_per_class = 40;
  dcfg.test_per_class = 10;
  const auto tt = data::make_synth_image(dcfg);
  fl::TrainerConfig cfg;
  cfg.n_clients = 20;
  cfg.byzantine_frac = 0.2;
  cfg.rounds = 50;
  cfg.batch_size = 8;
  cfg.lr = 0.2;
  cfg.eval_every = 10;
  cfg.eval_max_samples = 0;
  const auto model = [](std::uint64_t seed) {
    return nn::make_mlp(256, 16, 10, seed);
  };
  fl::Trainer trainer(tt, model, cfg);

  attacks::NoAttack none;
  const double baseline =
      trainer.run(none, fl::make_aggregator("Mean")).best_accuracy;

  auto attack = fl::make_attack(attack_name);
  const double defended =
      trainer.run(*attack, fl::make_aggregator("SignGuard")).best_accuracy;

  // Generous margin: the point is "not broken", not exact parity — at
  // this tiny scale run-to-run spread is a few points.
  EXPECT_GT(defended, baseline - 15.0) << attack_name;
}

INSTANTIATE_TEST_SUITE_P(StrongAttacks, MiniTableSweep,
                         ::testing::Values("ByzMean", "LIE", "MinMax",
                                           "MinSum", "Random", "Noise"));

}  // namespace
}  // namespace signguard
