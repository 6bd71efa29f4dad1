#include "attacks/adaptive.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace signguard::attacks {

namespace {

// Coordinate-wise mean of the benign set in a fixed sequential order —
// the anchor every emitted gradient deviates from. Plain double chains,
// no parallelism: the result is bitwise thread-invariant by construction.
std::vector<double> benign_average(std::span<const GradientView> benign) {
  const std::size_t dim = benign.front().size();
  std::vector<double> avg(dim, 0.0);
  for (const GradientView& g : benign) {
    if (g.size() != dim)
      throw std::invalid_argument("AdaptiveAttack: ragged benign gradients");
    for (std::size_t j = 0; j < dim; ++j) avg[j] += double(g[j]);
  }
  const double inv = 1.0 / double(benign.size());
  for (double& v : avg) v *= inv;
  return avg;
}

}  // namespace

// ---- AdaptiveAttack --------------------------------------------------------

AdaptiveAttack::AdaptiveAttack(std::unique_ptr<Attack> inner,
                               AdaptiveOptions opts)
    : inner_(std::move(inner)), opts_(opts) {
  if (!inner_)
    throw std::invalid_argument("AdaptiveAttack: inner attack is null");
  if (!(opts_.initial_gain > 0.0) || !std::isfinite(opts_.initial_gain))
    throw std::invalid_argument("AdaptiveAttack: initial_gain must be > 0");
  if (!(opts_.growth > 1.0) || !std::isfinite(opts_.growth))
    throw std::invalid_argument("AdaptiveAttack: growth must be > 1");
  if (!(opts_.gain_cap >= opts_.initial_gain) ||
      !std::isfinite(opts_.gain_cap))
    throw std::invalid_argument(
        "AdaptiveAttack: gain_cap must be >= initial_gain");
  if (!(opts_.admit_fraction >= 0.0) || !(opts_.admit_fraction <= 1.0))
    throw std::invalid_argument(
        "AdaptiveAttack: admit_fraction must be in [0, 1]");
  if (!(opts_.tolerance > 0.0) || !(opts_.tolerance < 1.0))
    throw std::invalid_argument(
        "AdaptiveAttack: tolerance must be in (0, 1)");
  gain_ = opts_.initial_gain;
}

void AdaptiveAttack::begin_round(std::size_t round, Rng& rng) {
  inner_->begin_round(round, rng);
}

bool AdaptiveAttack::flips_labels() const { return inner_->flips_labels(); }

std::string AdaptiveAttack::name() const {
  return "Adaptive(" + inner_->name() + ")";
}

std::vector<std::vector<float>> AdaptiveAttack::craft(
    const AttackContext& ctx) {
  const std::size_t m = ctx.n_byzantine;
  if (m == 0) return {};
  if (ctx.benign_grads.empty())
    throw std::invalid_argument(
        "AdaptiveAttack: craft with no benign gradients — the deviation "
        "has no anchor");

  std::vector<std::vector<float>> rows = inner_->craft(ctx);
  if (rows.size() != m)
    throw std::logic_error("AdaptiveAttack: inner attack returned " +
                           std::to_string(rows.size()) + " rows, expected " +
                           std::to_string(m));

  const std::vector<double> avg = benign_average(ctx.benign_grads);
  const std::size_t dim = avg.size();
  last_dir_.assign(dim, 0.0f);
  std::vector<double> dir(dim, 0.0);
  for (std::vector<float>& row : rows) {
    if (row.size() != dim)
      throw std::logic_error(
          "AdaptiveAttack: inner row dimension mismatch");
    for (std::size_t j = 0; j < dim; ++j) {
      const double dev = double(row[j]) - avg[j];
      dir[j] += dev;
      row[j] = float(avg[j] + gain_ * dev);
    }
  }
  const double inv = 1.0 / double(m);
  for (std::size_t j = 0; j < dim; ++j) last_dir_[j] = float(dir[j] * inv);
  crafted_this_round_ = true;
  return rows;
}

void AdaptiveAttack::observe_round(const RoundFeedback& fb) {
  inner_->observe_round(fb);
  const bool crafted = crafted_this_round_;
  crafted_this_round_ = false;
  // Nothing to learn from a round we did not attack, and a degraded
  // round's aggregate came from a fallback path (clipped mean, previous
  // aggregate, or nothing) — feedback from it would poison the search.
  if (!crafted || fb.byzantine == 0 || fb.degraded || fb.skipped) return;

  if (fb.has_selection) {
    const bool passed = double(fb.selected_byzantine) >=
                        opts_.admit_fraction * double(fb.byzantine);
    if (passed) {
      lo_ = std::max(lo_, gain_);
      if (have_hi_ && lo_ >= hi_) {
        // The boundary moved up past our old rejection bound; reopen.
        have_hi_ = false;
        converged_ = false;
      }
    } else {
      if (gain_ <= lo_) {
        // The boundary moved below our old admitted bound (benign
        // statistics tighten as training converges); restart the bracket
        // below the rejection.
        lo_ = gain_ / (opts_.growth * opts_.growth);
        converged_ = false;
      }
      hi_ = have_hi_ ? std::min(hi_, gain_) : gain_;
      have_hi_ = true;
    }
    if (!have_hi_) {
      // Unbounded above: escalate geometrically from the admitted bound.
      gain_ = std::min(lo_ * opts_.growth, opts_.gain_cap);
      if (gain_ >= opts_.gain_cap) converged_ = true;
    } else if (lo_ > 0.0 && hi_ - lo_ <= opts_.tolerance * hi_) {
      // Bracket tight enough: exploit the largest known-admitted gain,
      // but periodically re-probe the rejection bound — if the boundary
      // loosened since it was established, the probe gets admitted, the
      // `lo >= hi` branch above reopens the bracket and the escalation
      // resumes. One potentially-caught round every probe_every is the
      // exploration price.
      converged_ = true;
      if (opts_.probe_every > 0 && ++since_probe_ >= opts_.probe_every) {
        since_probe_ = 0;
        gain_ = hi_;
      } else {
        gain_ = lo_;
      }
    } else {
      converged_ = false;
      gain_ = 0.5 * (lo_ + hi_);
    }
    return;
  }

  // No trusted-set signal (coordinate-wise rule). Once selection feedback
  // has ever been seen, keep trusting it — mixed signals would fight.
  if (have_hi_ || lo_ > 0.0) return;
  if (fb.aggregate.empty() || last_dir_.empty() ||
      fb.aggregate.size() != last_dir_.size())
    return;
  double num = 0.0, den = 0.0;
  for (std::size_t j = 0; j < last_dir_.size(); ++j) {
    num += double(fb.aggregate[j]) * double(last_dir_[j]);
    den += double(last_dir_[j]) * double(last_dir_[j]);
  }
  if (!(den > 0.0)) return;
  // Realized damage: the coefficient of our deviation direction inside
  // the applied aggregate. Hill-climb the gain on it — trimming-style
  // rules admit small deviations in full and clip large ones, so damage
  // is unimodal in the gain.
  const double proj = num / den;
  if (have_proj_ && proj < last_proj_) climbing_up_ = !climbing_up_;
  last_proj_ = proj;
  have_proj_ = true;
  const double factor = climbing_up_ ? opts_.growth : 1.0 / opts_.growth;
  gain_ = std::clamp(gain_ * factor, opts_.initial_gain / opts_.gain_cap,
                     opts_.gain_cap);
}

void AdaptiveAttack::serialize_state(common::ByteWriter& w) const {
  w.f64(gain_);
  w.f64(lo_);
  w.f64(hi_);
  w.u8(have_hi_ ? 1 : 0);
  w.u8(converged_ ? 1 : 0);
  w.f64(last_proj_);
  w.u8(have_proj_ ? 1 : 0);
  w.u8(climbing_up_ ? 1 : 0);
  w.u8(crafted_this_round_ ? 1 : 0);
  w.u64(since_probe_);
  w.floats(last_dir_);
  common::ByteIo(w).blob(*inner_);
}

void AdaptiveAttack::restore_state(common::ByteReader& r) {
  gain_ = r.f64();
  lo_ = r.f64();
  hi_ = r.f64();
  have_hi_ = r.u8() != 0;
  converged_ = r.u8() != 0;
  last_proj_ = r.f64();
  have_proj_ = r.u8() != 0;
  climbing_up_ = r.u8() != 0;
  crafted_this_round_ = r.u8() != 0;
  since_probe_ = r.u64();
  last_dir_ = r.floats();
  common::ByteIo(r).blob(*inner_);
}

// ---- ChaosColludeAttack ----------------------------------------------------

ChaosColludeAttack::ChaosColludeAttack(std::unique_ptr<Attack> inner,
                                       std::uint64_t seed,
                                       double base_fraction, double jitter,
                                       std::size_t burst_rounds)
    : inner_(std::move(inner)),
      seed_(seed),
      base_fraction_(base_fraction),
      jitter_(jitter),
      burst_rounds_(burst_rounds) {
  if (!inner_)
    throw std::invalid_argument("ChaosColludeAttack: inner attack is null");
  if (!(base_fraction_ >= 0.0) || !(base_fraction_ <= 1.0))
    throw std::invalid_argument(
        "ChaosColludeAttack: base_fraction must be in [0, 1]");
  if (!(jitter_ >= 0.0) || !(jitter_ <= 1.0))
    throw std::invalid_argument(
        "ChaosColludeAttack: jitter must be in [0, 1]");
}

void ChaosColludeAttack::begin_round(std::size_t round, Rng& rng) {
  inner_->begin_round(round, rng);
}

bool ChaosColludeAttack::flips_labels() const {
  return inner_->flips_labels();
}

std::string ChaosColludeAttack::name() const {
  return "Collude(" + inner_->name() + ")";
}

double ChaosColludeAttack::fraction_for_round(std::size_t round) const {
  // Stateless keyed stream in (seed, round): any round's fraction is
  // computable without replaying earlier rounds, which is what keeps
  // checkpoint resume and thread-count changes bitwise identical.
  Rng stream = Rng::stream(seed_, 0x636f6c6c75646534ULL ^ round);
  const double f = base_fraction_ + jitter_ * stream.uniform(-1.0, 1.0);
  return std::clamp(f, 0.0, 1.0);
}

std::vector<std::vector<float>> ChaosColludeAttack::craft(
    const AttackContext& ctx) {
  const std::size_t m = ctx.n_byzantine;
  if (m == 0) return {};
  if (ctx.byz_honest_grads.size() != m)
    throw std::invalid_argument(
        "ChaosColludeAttack: byz_honest_grads must hold one gradient per "
        "Byzantine client");
  std::size_t n_att =
      burst_left_ > 0
          ? m
          : std::size_t(std::llround(fraction_for_round(ctx.round) *
                                     double(m)));
  n_att = std::min(n_att, m);

  std::vector<std::vector<float>> rows;
  rows.reserve(m);
  if (n_att > 0) {
    AttackContext sub = ctx;
    sub.byz_honest_grads = ctx.byz_honest_grads.subspan(0, n_att);
    sub.n_byzantine = n_att;
    rows = inner_->craft(sub);
    if (rows.size() != n_att)
      throw std::logic_error(
          "ChaosColludeAttack: inner attack returned " +
          std::to_string(rows.size()) + " rows, expected " +
          std::to_string(n_att));
  }
  // The non-colluding Byzantine clients behave honestly this round.
  for (std::size_t i = n_att; i < m; ++i) {
    const GradientView g = ctx.byz_honest_grads[i];
    rows.emplace_back(g.begin(), g.end());
  }
  return rows;
}

void ChaosColludeAttack::observe_round(const RoundFeedback& fb) {
  inner_->observe_round(fb);
  if (fb.degraded) {
    // The fallback chain fired: the next rounds aggregate over a thinned
    // cohort where the colluding fraction is proportionally larger.
    // Attack with everything while the window lasts.
    burst_left_ = burst_rounds_;
  } else if (burst_left_ > 0) {
    --burst_left_;
  }
}

void ChaosColludeAttack::serialize_state(common::ByteWriter& w) const {
  w.u64(burst_left_);
  common::ByteIo(w).blob(*inner_);
}

void ChaosColludeAttack::restore_state(common::ByteReader& r) {
  burst_left_ = r.u64();
  common::ByteIo(r).blob(*inner_);
}

}  // namespace signguard::attacks
