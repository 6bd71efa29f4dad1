#pragma once
// Feedback-driven adaptive adversaries (the regime Shejwalkar &
// Houmansadr's Min-Max/Min-Sum formalize, pushed one step further): the
// attacker re-optimizes against the deployed defense every round using
// the RoundFeedback channel (attack.h) the trainer feeds back after
// aggregation.
//
// AdaptiveAttack wraps any inner attack and rescales its deviation from
// the benign average by a per-round gain, then steers that gain from
// feedback:
//   * selection-reporting rules (Krum/Bulyan/DnC/SignGuard) leak which
//     updates were admitted — the attacker bisects the detection
//     boundary: admitted rounds raise the known-safe gain (lo), rejected
//     rounds lower the known-caught gain (hi), and the probe converges
//     geometrically to the largest amplitude the filter still admits.
//   * coordinate-wise rules (Mean/TrMean/Median) report no selection —
//     the attacker hill-climbs on realized damage instead, measured as
//     the projection of the broadcast aggregate onto its own deviation
//     direction.
//
// ChaosColludeAttack times the collusion: a stateless keyed stream in
// (seed, round) draws a time-varying colluding fraction, and feedback
// that a round degraded (quorum fallback / skip — PR 8's chaos fallback
// chain) triggers a full-collusion burst for the next few rounds, when
// the surviving cohort is smallest and the Byzantine fraction among
// survivors is highest.
//
// Determinism: craft() and observe_round() are pure functions of
// (inner attack, feedback history, keyed streams) — no wall clock, no
// ambient RNG — and every cross-round variable is carried by
// serialize_state, so kill+resume and SIGNGUARD_THREADS changes replay
// the whole feedback loop bitwise.

#include <memory>

#include "attacks/attack.h"

namespace signguard::attacks {

struct AdaptiveOptions {
  double initial_gain = 1.0;  // gain on round 0 (1.0 = the inner attack)
  double growth = 2.0;        // escalation factor while unbounded above
  double gain_cap = 1e4;      // hard amplitude ceiling for the search
  // An admitted round means at least this fraction of the Byzantine
  // updates made the trusted set.
  double admit_fraction = 0.5;
  // Bisection stops (and the gain pins to the known-admitted bound) once
  // hi - lo <= tolerance * hi.
  double tolerance = 0.1;
  // Once converged, re-probe the rejection bound every this many
  // exploit rounds: a boundary that loosened (e.g. the defense relaxes
  // as benign variance grows) is re-discovered and the escalation
  // reopens upward. 0 disables probing; the converged gain then tracks
  // only downward moves.
  std::size_t probe_every = 8;
};

class AdaptiveAttack : public Attack {
 public:
  // Throws std::invalid_argument on a null inner attack or degenerate
  // options (non-positive initial_gain/gain_cap, growth <= 1,
  // admit_fraction outside [0, 1], tolerance outside (0, 1)).
  explicit AdaptiveAttack(std::unique_ptr<Attack> inner,
                          AdaptiveOptions opts = {});

  void begin_round(std::size_t round, Rng& rng) override;
  bool flips_labels() const override;
  // Throws std::invalid_argument when n_byzantine > 0 with an empty
  // benign set — the deviation has no anchor.
  std::vector<std::vector<float>> craft(const AttackContext& ctx) override;
  void observe_round(const RoundFeedback& fb) override;
  std::string name() const override;

  void serialize_state(common::ByteWriter& w) const override;
  void restore_state(common::ByteReader& r) override;

  // Exposed for tests: the amplitude the next craft() will use, the
  // bracket the bisection has established, and whether it has settled.
  double gain() const { return gain_; }
  double gain_lo() const { return lo_; }
  double gain_hi() const { return hi_; }
  bool converged() const { return converged_; }

 private:
  std::unique_ptr<Attack> inner_;
  AdaptiveOptions opts_;

  // --- cross-round search state (all checkpointed) ---
  double gain_ = 1.0;       // amplitude for the next craft
  double lo_ = 0.0;         // largest gain known to be admitted
  double hi_ = 0.0;         // smallest gain known to be rejected
  bool have_hi_ = false;    // hi_ is meaningful
  bool converged_ = false;  // bracket within tolerance; gain pinned to lo
  // Damage hill-climb state for non-selecting rules.
  double last_proj_ = 0.0;        // realized damage on the previous round
  bool have_proj_ = false;
  bool climbing_up_ = true;
  // Exploit rounds since the last upward probe of hi (converged only).
  std::size_t since_probe_ = 0;
  // Deviation direction of the last craft (mean inner row - benign avg),
  // unnormalized; the damage probe projects the aggregate onto it.
  std::vector<float> last_dir_;
  bool crafted_this_round_ = false;
};

class ChaosColludeAttack : public Attack {
 public:
  // base_fraction: mean colluding fraction outside bursts, in [0, 1].
  // jitter: the per-round fraction is base +/- uniform(jitter), drawn
  //   from the stateless stream (seed, round); clamped to [0, 1].
  // burst_rounds: rounds of full collusion after a degraded round.
  // Throws std::invalid_argument on a null inner, base_fraction or
  // jitter outside [0, 1], or NaN anywhere.
  ChaosColludeAttack(std::unique_ptr<Attack> inner, std::uint64_t seed,
                     double base_fraction = 0.5, double jitter = 0.25,
                     std::size_t burst_rounds = 3);

  void begin_round(std::size_t round, Rng& rng) override;
  bool flips_labels() const override;
  std::vector<std::vector<float>> craft(const AttackContext& ctx) override;
  void observe_round(const RoundFeedback& fb) override;
  std::string name() const override;

  void serialize_state(common::ByteWriter& w) const override;
  void restore_state(common::ByteReader& r) override;

  // Exposed for tests.
  std::size_t burst_left() const { return burst_left_; }
  double fraction_for_round(std::size_t round) const;

 private:
  std::unique_ptr<Attack> inner_;
  std::uint64_t seed_;
  double base_fraction_;
  double jitter_;
  std::size_t burst_rounds_;
  std::size_t burst_left_ = 0;  // checkpointed
};

}  // namespace signguard::attacks
