#include "attacks/byzmean.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "attacks/lie.h"
#include "common/parallel.h"
#include "common/vecops.h"

namespace signguard::attacks {

ByzMeanAttack::ByzMeanAttack(std::unique_ptr<Attack> inner,
                             double m1_fraction)
    : inner_(inner ? std::move(inner) : std::make_unique<LieAttack>(0.3)),
      m1_fraction_(m1_fraction) {
  // NaN fails both comparisons, so it is rejected here too.
  if (!(m1_fraction_ >= 0.0) || !(m1_fraction_ <= 1.0))
    throw std::invalid_argument(
        "ByzMeanAttack: m1_fraction must be in [0, 1]");
}

void ByzMeanAttack::begin_round(std::size_t round, Rng& rng) {
  inner_->begin_round(round, rng);
}

std::vector<std::vector<float>> ByzMeanAttack::craft(
    const AttackContext& ctx) {
  const std::size_t m = ctx.n_byzantine;
  const std::size_t n = ctx.n_total;
  if (m == 0) return {};
  // Eq. (8) steers the mean of all n gradients relative to the benign
  // sum; with no benign gradients the construction (and the inner LIE
  // vector) is undefined.
  if (ctx.benign_grads.empty())
    throw std::invalid_argument(
        "ByzMeanAttack: craft with no benign gradients");
  // Eq. (8) needs both groups non-empty (m >= 2); with a single Byzantine
  // client the hybrid degenerates to the inner attack alone.
  if (m == 1) return inner_->craft(ctx);
  std::size_t m1 = static_cast<std::size_t>(
      std::floor(m1_fraction_ * double(m)));
  m1 = std::min(std::max<std::size_t>(m1, 1), m - 1);
  const std::size_t m2 = m - m1;

  // g_m1 from the inner attack (one representative vector).
  AttackContext inner_ctx = ctx;
  inner_ctx.n_byzantine = m1;
  inner_ctx.byz_honest_grads = ctx.byz_honest_grads.subspan(0, m1);
  auto inner_out = inner_->craft(inner_ctx);
  if (inner_out.empty())
    throw std::logic_error(
        "ByzMeanAttack: inner attack produced no gradient for group 1");
  const std::vector<float>& gm1 = inner_out.front();

  // g_m2 per Eq. (8): ((n - m1) * g_m1 - sum(benign)) / m2. Tiled by
  // coordinate so the running sum stays cache-resident while the benign
  // rows stream past; each coordinate still sees the same float
  // rounding steps in the same order as whole-row axpy passes.
  const std::size_t d = gm1.size();
  std::vector<float> gm2(d, 0.0f);
  common::parallel_chunks(
      d, [&](std::size_t begin, std::size_t end, std::size_t) {
        constexpr std::size_t kTile = vec::kAccumulatorTile;
        for (std::size_t t0 = begin; t0 < end; t0 += kTile) {
          const std::size_t len = std::min(end, t0 + kTile) - t0;
          const std::span<float> acc(gm2.data() + t0, len);
          for (const auto& g : ctx.benign_grads)
            vec::axpy(-1.0, g.subspan(t0, len), acc);
          vec::axpy(double(n - m1),
                    std::span<const float>(gm1).subspan(t0, len), acc);
          vec::scale(acc, 1.0 / double(m2));
        }
      });

  std::vector<std::vector<float>> out;
  out.reserve(m);
  for (std::size_t i = 0; i < m1; ++i) out.push_back(gm1);
  for (std::size_t i = 0; i < m2; ++i) out.push_back(gm2);
  return out;
}

}  // namespace signguard::attacks
