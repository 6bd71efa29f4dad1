// Theory-to-code tests: the paper's analytical claims verified on
// simulated gradient populations — Proposition 1 (LIE is closer in L2 and
// more cosine-similar than some honest gradient), the Eq. (3) sign-flip
// condition for median aggregation, Lemma 1's non-IID deviation bound, and
// the Fig. 2 observation that LIE perturbs the sign statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "attacks/lie.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/quantiles.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "core/signguard.h"
#include "fixtures.h"

namespace signguard {
namespace {

// Proposition 1, Eq. (6): with small z there exists an honest gradient
// farther from the true average than the LIE gradient.
TEST(Proposition1, LieCloserThanSomeHonestGradient) {
  const std::size_t n = 20, d = 2048;
  const auto g = gaussian_grads(n, d, 0.2, 1.0, 1);
  const auto avg = vec::mean_of(g);
  const auto gm = attacks::LieAttack::craft_vector(g.row_views(), 0.3);
  const double lie_dist = vec::dist2(gm, avg);
  bool exists = false;
  for (std::size_t i = 0; i < n; ++i)
    if (lie_dist < vec::dist2(g.row(i), avg)) exists = true;
  EXPECT_TRUE(exists);
  // Stronger empirical form of the proof's bound: the LIE distance is
  // below z^2 * (1 + 1/n) * sigma^2 * d with sigma = 1.
  EXPECT_LT(lie_dist, 0.3 * 0.3 * (1.0 + 1.0 / double(n)) * double(d) * 1.2);
}

// Proposition 1, Eq. (7): LIE can have HIGHER cosine similarity with the
// true average than some honest gradient.
TEST(Proposition1, LieMoreSimilarThanSomeHonestGradient) {
  const std::size_t n = 20, d = 2048;
  const auto g = gaussian_grads(n, d, 0.2, 1.0, 2);
  const auto avg = vec::mean_of(g);
  const auto gm = attacks::LieAttack::craft_vector(g.row_views(), 0.3);
  const double lie_cos = vec::cosine(gm, avg);
  bool exists = false;
  for (std::size_t i = 0; i < n; ++i)
    if (lie_cos > vec::cosine(g.row(i), avg)) exists = true;
  EXPECT_TRUE(exists);
}

// Eq. (3): under coordinate-median aggregation hijacked to g_m, a
// coordinate with z > mu_j / sigma_j has its sign reversed.
TEST(Equation3, SignReversalCondition) {
  // mu = 0.5, sigma = 1: z = 0.3 < 0.5 keeps the sign; z = 0.8 flips it.
  EXPECT_GT(0.5 - 0.3 * 1.0, 0.0);
  EXPECT_LT(0.5 - 0.8 * 1.0, 0.0);
  // And on a simulated population with per-coordinate moments:
  const auto g = gaussian_grads(50, 512, 0.2, 1.0, 3);
  const auto moments = vec::coordinate_moments(g);
  const auto gm = attacks::LieAttack::craft_vector(g.row_views(), 1.0);
  std::size_t flipped = 0, eligible = 0;
  for (std::size_t j = 0; j < gm.size(); ++j) {
    if (moments.mean[j] > 0.0f) {
      ++eligible;
      const bool cond = 1.0 > moments.mean[j] / moments.stddev[j];
      const bool did_flip = gm[j] < 0.0f;
      EXPECT_EQ(cond, did_flip) << "coordinate " << j;
      if (did_flip) ++flipped;
    }
  }
  EXPECT_GT(eligible, 0u);
  EXPECT_GT(flipped, 0u);
}

// Fig. 2: the LIE gradient's sign statistics deviate from honest ones —
// with mean mu > 0, positive fraction collapses as z grows.
TEST(Fig2Claim, LieShiftsSignStatistics) {
  const auto g = gaussian_grads(50, 4096, 0.3, 1.0, 4);
  const auto views = g.row_views();
  const SignStats honest = sign_statistics(vec::mean_of(g));
  double prev_pos = 1.0;
  for (const double z : {0.3, 0.8, 1.5, 3.0}) {
    const auto gm = attacks::LieAttack::craft_vector(views, z);
    const SignStats s = sign_statistics(gm);
    EXPECT_LE(s.pos, prev_pos + 1e-9);  // monotone collapse with z
    prev_pos = s.pos;
  }
  const auto gm_strong = attacks::LieAttack::craft_vector(views, 3.0);
  const SignStats strong = sign_statistics(gm_strong);
  EXPECT_GT(honest.pos, 0.5);
  EXPECT_LT(strong.pos, 0.05);
}

// Lemma 1: E||avg(benign) - grad F||^2 <= beta^2 kappa^2/(1-beta)^2
//          + sigma^2 / ((1-beta) n).
TEST(Lemma1, NonIidDeviationBound) {
  Rng rng(5);
  const std::size_t n = 50, d = 256, trials = 30;
  const double beta = 0.2, kappa = 0.5, sigma = 1.0;
  const std::size_t n_benign = std::size_t((1.0 - beta) * n);
  double mean_sq_dev = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    // True global gradient.
    const auto f = rng.normal_vector(d, 0.0, 1.0);
    // Per-client bias delta_i with ||delta_i|| = kappa (non-IID drift),
    // constructed to average ~0 across ALL n clients by pairing.
    double acc = 0.0;
    std::vector<float> avg(d, 0.0f);
    for (std::size_t i = 0; i < n_benign; ++i) {
      auto delta = rng.normal_vector(d, 0.0, 1.0);
      vec::scale(delta, kappa / vec::norm(delta));
      auto gi = f;
      vec::axpy(1.0, delta, gi);
      // Sampling noise with per-coordinate variance sigma^2/d so the
      // total gradient variance is sigma^2 as in Assumption 1.
      const auto noise =
          rng.normal_vector(d, 0.0, sigma / std::sqrt(double(d)));
      vec::axpy(1.0, noise, gi);
      vec::axpy(1.0 / double(n_benign), gi, avg);
    }
    acc = vec::dist2(avg, f);
    mean_sq_dev += acc / double(trials);
  }
  const double bound = beta * beta * kappa * kappa /
                           ((1.0 - beta) * (1.0 - beta)) +
                       sigma * sigma / ((1.0 - beta) * double(n));
  // The constructed population has kappa-norm biases in random directions,
  // which average down by 1/n_benign — comfortably below the worst-case
  // bound the lemma permits.
  EXPECT_LT(mean_sq_dev, bound * 1.5 + kappa * kappa / double(n_benign));
}

// Assumption 2 sanity for SignGuard: the aggregate's bias w.r.t. the
// benign mean is bounded by the largest benign pairwise distance (the
// sup term of the assumption) even under corruption.
TEST(Assumption2, SignGuardBiasWithinPairwiseSup) {
  const std::size_t n = 20, m = 4, d = 2048;
  // Benign rows first; the m LIE rows overwrite the tail.
  auto g = gaussian_grads(n, d, 0.3, 0.8, 6);
  const auto views = g.row_views();
  const auto benign = std::span(views).first(n - m);
  const auto benign_mean = vec::mean_of(benign);
  double sup_pair = 0.0;
  for (std::size_t i = 0; i < n - m; ++i)
    for (std::size_t j = i + 1; j < n - m; ++j)
      sup_pair = std::max(sup_pair, vec::dist(g.row(i), g.row(j)));
  const auto gm = attacks::LieAttack::craft_vector(benign, 1.0);
  for (std::size_t i = n - m; i < n; ++i)
    std::ranges::copy(gm, g.row(i).begin());

  core::SignGuard sg(core::plain_config());
  const auto out = sg.aggregate(g, agg::GarContext{});
  EXPECT_LT(vec::dist(out, benign_mean), sup_pair);
}

// Theorem 1 premise: the paper's learning-rate ceiling
// (2 - sqrt(delta) - 2 beta) / (4L) is positive across the admissible
// range delta < beta < 0.5.
TEST(Theorem1, LearningRateCeilingPositive) {
  for (double beta = 0.0; beta < 0.5; beta += 0.05) {
    for (double delta = 0.0; delta <= beta; delta += 0.05) {
      const double ceiling = (2.0 - std::sqrt(delta) - 2.0 * beta) / 4.0;
      EXPECT_GT(ceiling, 0.0) << "beta=" << beta << " delta=" << delta;
    }
  }
}

// Jensen step used in Proposition 1's proof: the norm of the average is
// at most the max norm of the population.
TEST(Proposition1, NormOfAverageBelowMaxNorm) {
  const auto g = gaussian_grads(16, 512, 0.1, 1.0, 7);
  const auto avg = vec::mean_of(g);
  double max_norm = 0.0;
  for (std::size_t i = 0; i < g.rows(); ++i)
    max_norm = std::max(max_norm, vec::norm(g.row(i)));
  EXPECT_LE(vec::norm(avg), max_norm);
}

}  // namespace
}  // namespace signguard
