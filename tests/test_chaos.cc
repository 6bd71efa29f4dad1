// Chaos-engine tests (fl/chaos.h, fl/checkpoint.h): the determinism
// contract of the fault model (stateless keyed streams — bitwise
// thread-invariance, query-order independence, no cursor to checkpoint),
// the joint dropout/straggler semantics documented in fl/trainer.h,
// exactly-once churn accounting, quorum degradation outcomes, and
// crash-consistent checkpoint/restore (kill at round r + resume must be
// bitwise identical to the uninterrupted run).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/hash.h"
#include "data/synth_image.h"
#include "fl/chaos.h"
#include "fl/checkpoint.h"
#include "fl/experiment.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "fixtures.h"

namespace signguard::fl {
namespace {

data::TrainTest tiny_data(std::uint64_t seed = 5) {
  data::SynthImageConfig cfg;
  cfg.train_per_class = 40;
  cfg.test_per_class = 10;
  cfg.seed = seed;
  return data::make_synth_image(cfg);
}

TrainerConfig tiny_config() {
  TrainerConfig cfg;
  cfg.n_clients = 20;
  cfg.byzantine_frac = 0.2;
  cfg.rounds = 12;
  cfg.batch_size = 8;
  cfg.lr = 0.2;
  cfg.eval_every = 4;
  cfg.eval_max_samples = 0;
  cfg.seed = 3;
  return cfg;
}

ModelFactory tiny_model() {
  return [](std::uint64_t seed) { return nn::make_mlp(256, 16, 10, seed); };
}

// Temp-file path unique to this test binary run (tests may run
// concurrently across suites, never within one).
std::string tmp_path(const std::string& tag) {
  return unique_temp_path("signguard_chaos_" + tag);
}

// ---- ChaosEngine determinism ----------------------------------------------

ChaosConfig flaky_config() {
  ChaosConfig cfg;
  cfg.profile = fault_profile_from_name("flaky");
  cfg.deadline_ms = 300.0;
  cfg.churn_leave_prob = 0.15;
  cfg.churn_mean_absence = 2.5;
  return cfg;
}

TEST(ChaosEngine, UplinkIsPureInClientAndRound) {
  const ChaosConfig cfg = flaky_config();
  ChaosEngine a(32, cfg, 99);
  ChaosEngine b(32, cfg, 99);
  // Query b in a scrambled order first: answers must not depend on what
  // was asked before (stateless keyed streams, not a shared cursor).
  for (std::size_t c = 31; c < 32; --c) b.simulate_uplink(c, 7);
  for (std::size_t r = 20; r > 0; --r) b.simulate_uplink(3, r - 1);
  for (std::size_t c = 0; c < 32; ++c) {
    for (std::size_t r = 0; r < 20; ++r) {
      const UplinkSim x = a.simulate_uplink(c, r);
      const UplinkSim y = b.simulate_uplink(c, r);
      EXPECT_EQ(x.delivery, y.delivery);
      EXPECT_EQ(x.corrupt, y.corrupt);
      EXPECT_EQ(x.attempts, y.attempts);
      EXPECT_EQ(x.elapsed_ms, y.elapsed_ms);  // bitwise, not approx
      EXPECT_EQ(x.corrupt_pos, y.corrupt_pos);
    }
  }
}

TEST(ChaosEngine, ChurnScheduleIsQueryOrderIndependent) {
  const ChaosConfig cfg = flaky_config();
  ChaosEngine fwd(16, cfg, 42);
  ChaosEngine rev(16, cfg, 42);
  std::vector<std::vector<bool>> want(16);
  for (std::size_t c = 0; c < 16; ++c)
    for (std::size_t r = 0; r < 64; ++r)
      want[c].push_back(fwd.client_up(c, r));
  // Reverse order forces the lazy schedule cache to extend all the way on
  // first touch; the answers must match the forward sweep exactly.
  for (std::size_t c = 16; c > 0; --c)
    for (std::size_t r = 64; r > 0; --r)
      EXPECT_EQ(rev.client_up(c - 1, r - 1), want[c - 1][r - 1])
          << "client " << c - 1 << " round " << r - 1;
}

TEST(ChaosEngine, DifferentSeedsDiffer) {
  const ChaosConfig cfg = flaky_config();
  ChaosEngine a(32, cfg, 1);
  ChaosEngine b(32, cfg, 2);
  std::size_t diff = 0;
  for (std::size_t c = 0; c < 32; ++c)
    for (std::size_t r = 0; r < 16; ++r)
      diff += a.simulate_uplink(c, r).elapsed_ms !=
              b.simulate_uplink(c, r).elapsed_ms;
  EXPECT_GT(diff, 0u);
}

TEST(ChaosEngine, TiersPartitionThePopulation) {
  ChaosConfig cfg;
  cfg.profile = fault_profile_from_name("mobile");  // 3 tiers
  ChaosEngine e(1000, cfg, 7);
  std::vector<std::size_t> counts(cfg.profile.tiers.size(), 0);
  for (std::size_t c = 0; c < 1000; ++c) {
    ASSERT_LT(e.tier_of(c), counts.size());
    ++counts[e.tier_of(c)];
    EXPECT_EQ(e.tier_latency_mult(c),
              cfg.profile.tiers[e.tier_of(c)].latency_mult);
  }
  // Tier shares within a loose band of their configured fractions.
  for (std::size_t t = 0; t < counts.size(); ++t)
    EXPECT_NEAR(double(counts[t]) / 1000.0, cfg.profile.tiers[t].fraction,
                0.08);
}

TEST(ChaosEngine, NoneProfileDeliversInstantlyAndCleanly) {
  ChaosConfig cfg;
  cfg.deadline_ms = 1.0;  // active via deadline, but no transport faults
  ChaosEngine e(4, cfg, 7);
  const UplinkSim sim = e.simulate_uplink(2, 9);
  EXPECT_EQ(sim.delivery, UplinkSim::Delivery::kOnTime);
  EXPECT_EQ(sim.attempts, 1u);
  EXPECT_EQ(sim.elapsed_ms, 0.0);
}

TEST(ChaosConfig, ValidateRejectsDegenerateParameters) {
  ChaosConfig cfg;
  cfg.profile = fault_profile_from_name("lan");
  cfg.profile.p_drop = 0.7;
  cfg.profile.p_truncate = 0.5;  // sum > 1
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ChaosConfig{};
  cfg.churn_leave_prob = 0.5;
  cfg.churn_mean_absence = 0.5;  // mean absence < 1 round
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ChaosConfig{};
  cfg.profile.max_attempts = 0;
  cfg.profile.name = "custom";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(fault_profile_from_name("wifi"), std::invalid_argument);
}

TEST(DegradeAction, NameRoundTrip) {
  for (const char* name : {"skip", "prev", "cmean"})
    EXPECT_STREQ(to_string(degrade_action_from_name(name)), name);
  EXPECT_THROW(degrade_action_from_name("retry"), std::invalid_argument);
}

// ---- Joint dropout/straggler semantics (fl/trainer.h) ---------------------

TEST(FailureSemantics, EveryClientLandsInExactlyOneState) {
  const auto tt = tiny_data();
  TrainerConfig cfg = tiny_config();
  cfg.rounds = 30;
  cfg.dropout_prob = 0.3;
  cfg.straggler_prob = 0.4;
  Trainer trainer(tt, tiny_model(), cfg);
  std::size_t dropped = 0, stragglers = 0, rounds_seen = 0;
  const auto observer = [&](const RoundObservation& obs) {
    // Full participation: dropped + stragglers + arrivals == n, every
    // round — the sequential coins leave no client in two states and
    // none unaccounted for.
    EXPECT_EQ(obs.dropped + obs.stragglers + obs.participants,
              cfg.n_clients)
        << "round " << obs.round;
    dropped += obs.dropped;
    stragglers += obs.stragglers;
    ++rounds_seen;
  };
  auto attack = make_attack("SignFlip");
  trainer.run(*attack, make_aggregator("Mean", 1), observer);
  EXPECT_EQ(rounds_seen, cfg.rounds);
  // Empirical rates against the documented sequential-coin law:
  //   P(dropped) = p_drop, P(straggler) = (1 - p_drop) * p_strag.
  const double total = double(cfg.rounds * cfg.n_clients);
  EXPECT_NEAR(double(dropped) / total, 0.3, 0.06);
  EXPECT_NEAR(double(stragglers) / total, 0.7 * 0.4, 0.06);
}

// ---- Exactly-once churn accounting ----------------------------------------

TEST(Churn, AccountedExactlyOncePerAbsentClientRound) {
  const auto tt = tiny_data();
  TrainerConfig cfg = tiny_config();
  cfg.chaos.churn_leave_prob = 0.2;
  cfg.chaos.churn_mean_absence = 2.0;
  Trainer trainer(tt, tiny_model(), cfg);
  std::size_t churned_sum = 0;
  const auto observer = [&](const RoundObservation& obs) {
    // No faults and no legacy coins: every selected client is either
    // present (an arrival) or churned — nothing else, nothing twice.
    EXPECT_EQ(obs.churned + obs.participants, cfg.n_clients)
        << "round " << obs.round;
    EXPECT_EQ(obs.dropped, 0u);
    EXPECT_EQ(obs.stragglers, 0u);
    churned_sum += obs.churned;
  };
  auto attack = make_attack("NoAttack");
  const TrainingResult res =
      trainer.run(*attack, make_aggregator("Mean", 1), observer);
  EXPECT_EQ(res.churned, churned_sum);
  EXPECT_GT(res.churned, 0u);  // p=0.2 over 240 client-rounds
}

// ---- Quorum degradation ---------------------------------------------------

TEST(Quorum, SkipActionSkipsStarvedRounds) {
  const auto tt = tiny_data();
  TrainerConfig cfg = tiny_config();
  cfg.quorum.min_participants = cfg.n_clients + 1;  // unreachable
  cfg.quorum.action = DegradeAction::kSkip;
  Trainer trainer(tt, tiny_model(), cfg);
  auto attack = make_attack("NoAttack");
  std::size_t proceed = 0;
  const auto observer = [&](const RoundObservation& obs) {
    EXPECT_EQ(obs.outcome, RoundOutcome::kSkippedQuorum);
    EXPECT_TRUE(obs.skipped);
    proceed += obs.outcome == RoundOutcome::kProceed;
  };
  const TrainingResult res =
      trainer.run(*attack, make_aggregator("Mean", 1), observer);
  EXPECT_EQ(proceed, 0u);
  EXPECT_EQ(res.skipped_rounds, cfg.rounds);
  EXPECT_TRUE(res.history.empty());  // a skipped round never evaluates
}

TEST(Quorum, ChurnStarvedRoundsFallBackToPrevAggregate) {
  const auto tt = tiny_data();
  TrainerConfig cfg = tiny_config();
  cfg.n_clients = 16;
  cfg.chaos.churn_leave_prob = 0.5;
  cfg.quorum.min_participants = 16;  // any churn degrades the round
  cfg.quorum.action = DegradeAction::kPrevAggregate;
  Trainer trainer(tt, tiny_model(), cfg);
  auto attack = make_attack("NoAttack");
  const TrainingResult res =
      trainer.run(*attack, make_aggregator("Mean", 1), nullptr);
  // Churn schedules all start "up", so round 0 proceeds and seeds the
  // previous aggregate; with p=0.5 over 16 clients the later rounds are
  // overwhelmingly churn-starved and must replay it.
  EXPECT_GT(res.fallback_prev_rounds, 0u);
  EXPECT_EQ(res.fallback_cmean_rounds, 0u);
}

TEST(Quorum, ClippedMeanFallbackKeepsTraining) {
  const auto tt = tiny_data();
  TrainerConfig cfg = tiny_config();
  cfg.n_clients = 16;
  cfg.chaos.churn_leave_prob = 0.5;
  cfg.quorum.min_participants = 16;
  cfg.quorum.action = DegradeAction::kClippedMean;
  Trainer trainer(tt, tiny_model(), cfg);
  auto attack = make_attack("NoAttack");
  std::size_t cmean_rounds = 0;
  const auto observer = [&](const RoundObservation& obs) {
    if (obs.outcome == RoundOutcome::kFallbackClippedMean) {
      ++cmean_rounds;
      EXPECT_FALSE(obs.skipped);
      EXPECT_FALSE(obs.aggregate.empty());  // degraded but applied
    }
  };
  const TrainingResult res =
      trainer.run(*attack, make_aggregator("Mean", 1), observer);
  EXPECT_EQ(res.fallback_cmean_rounds, cmean_rounds);
  EXPECT_GT(res.fallback_cmean_rounds, 0u);
  EXPECT_FALSE(res.history.empty());  // fallback rounds still evaluate
}

// A rule that rejects every round's input — the "starved GAR" case the
// quorum policy must absorb instead of letting it abort the run.
class ThrowingGar : public agg::Aggregator {
 public:
  using Aggregator::aggregate;
  std::vector<float> aggregate(const common::GradientMatrix&,
                               const agg::GarContext&) override {
    throw std::runtime_error("starved");
  }
  std::string name() const override { return "Throwing"; }
};

TEST(Quorum, ThrowingGarDegradesInsteadOfAborting) {
  const auto tt = tiny_data();
  TrainerConfig cfg = tiny_config();
  cfg.quorum.min_participants = 1;
  cfg.quorum.action = DegradeAction::kClippedMean;
  Trainer trainer(tt, tiny_model(), cfg);
  auto attack = make_attack("NoAttack");
  const TrainingResult res =
      trainer.run(*attack, std::make_unique<ThrowingGar>(), nullptr);
  EXPECT_EQ(res.fallback_cmean_rounds, cfg.rounds);
  EXPECT_EQ(res.skipped_rounds, 0u);
}

TEST(Quorum, MinSurvivorsChecksSelectingRules) {
  const auto tt = tiny_data();
  TrainerConfig cfg = tiny_config();
  // SignGuard admits a trusted subset; demanding more survivors than
  // clients forces the post-filter quorum to fail on every round.
  cfg.quorum.min_survivors = cfg.n_clients + 1;
  cfg.quorum.action = DegradeAction::kClippedMean;
  Trainer trainer(tt, tiny_model(), cfg);
  auto attack = make_attack("NoAttack");
  const TrainingResult res =
      trainer.run(*attack, make_aggregator("SignGuard", 1), nullptr);
  EXPECT_EQ(res.fallback_cmean_rounds, cfg.rounds);
  // A non-selecting rule must be exempt: an empty selection means
  // "everyone", not "nobody".
  Trainer flat(tt, tiny_model(), cfg);
  const TrainingResult mean_res =
      flat.run(*attack, make_aggregator("Mean", 1), nullptr);
  EXPECT_EQ(mean_res.fallback_cmean_rounds, 0u);
}

// ---- Crash-consistent checkpoint/restore ----------------------------------

// Collects the per-round aggregate checksums + eval history that the
// bitwise-resume assertions compare.
struct TraceLog {
  std::vector<std::uint64_t> checksums;
  RoundTally sum;  // the observed rounds' tallies, summed in round order
  RoundObserver observer() {
    return [this](const RoundObservation& obs) {
      checksums.push_back(
          obs.aggregate.empty()
              ? 0
              : common::fnv1a64(obs.aggregate.data(),
                                obs.aggregate.size() * sizeof(float)));
      sum += obs;
    };
  }
};

// Every RoundTally field, exactly (the simulated time included: both
// sides add the same doubles in the same order).
void expect_same_tally(const RoundTally& a, const RoundTally& b) {
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.stragglers, b.stragglers);
  EXPECT_EQ(a.decode_rejects, b.decode_rejects);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.uplink_dense_bytes, b.uplink_dense_bytes);
  EXPECT_EQ(a.uplink_decoded_bytes, b.uplink_decoded_bytes);
  EXPECT_EQ(a.churned, b.churned);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.lost_uplinks, b.lost_uplinks);
  EXPECT_EQ(a.uplink_attempts, b.uplink_attempts);
  EXPECT_EQ(a.sim_time_ms, b.sim_time_ms);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(Checkpoint, FileRoundTripAndCorruptionDetection) {
  const std::string path = tmp_path("roundtrip.ckpt");
  const std::string payload = std::string("the quick brown fox") +
                              std::string(3, '\0') + "tail";
  write_checkpoint_file(path, payload);
  EXPECT_TRUE(checkpoint_exists(path));
  EXPECT_EQ(read_checkpoint_file(path), payload);
  // Every single-bit flip — magic, version, length, checksum or payload
  // — must be refused.
  const std::string good = read_file(path);
  ASSERT_EQ(good.size(), 24 + payload.size());
  for (std::size_t bit = 0; bit < 8 * good.size(); ++bit) {
    std::string bad = good;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    write_file(path, bad);
    EXPECT_THROW(read_checkpoint_file(path), std::runtime_error)
        << "bit=" << bit;
  }
  std::remove(path.c_str());
  EXPECT_FALSE(checkpoint_exists(path));
  EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);
}

// Format version 1 sealed the payload with FNV-1a; version 2 sealed it
// with XXH64 like today's files, but its payload may hold another
// trainer field list. Either file must be refused as another format,
// not reported as a checksum mismatch (which reads as disk corruption)
// or read field-shifted.
TEST(Checkpoint, VersionOneFileIsAnUnsupportedVersion) {
  const std::string path = tmp_path("old.ckpt");
  const std::string payload = "trainer state from an older build";
  for (const std::uint32_t version : {1u, 2u}) {
    common::ByteWriter old;
    old.raw("SGCK", 4);
    old.u32(version);
    old.u64(payload.size());
    old.u64(version == 1 ? common::fnv1a64(payload)
                         : common::xxh64(payload.data(), payload.size()));
    old.raw(payload.data(), payload.size());
    write_file(path, old.bytes());
    try {
      read_checkpoint_file(path);
      ADD_FAILURE() << "a version-" << version << " checkpoint was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported format version"),
                std::string::npos)
          << "version " << version << ": " << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, KillAndResumeIsBitwiseIdentical) {
  const auto tt = tiny_data();
  const std::string path = tmp_path("resume.ckpt");
  std::remove(path.c_str());
  TrainerConfig cfg = tiny_config();
  cfg.dropout_prob = 0.1;
  cfg.straggler_prob = 0.1;
  cfg.compression.codec = comm::CodecKind::kSign1;
  cfg.chaos.profile = fault_profile_from_name("flaky");
  // Two attempts and a fault in two of five: lost chains and corrupt
  // final arrivals (decode rejects) are routine within 12 rounds.
  cfg.chaos.profile.p_drop = 0.2;
  cfg.chaos.profile.p_truncate = 0.1;
  cfg.chaos.profile.p_bitflip = 0.1;
  cfg.chaos.profile.max_attempts = 2;
  cfg.chaos.deadline_ms = 250.0;
  cfg.chaos.churn_leave_prob = 0.1;

  // Reference: uninterrupted run. Its run totals are the sum of the
  // rounds its observer saw, every tally field of it.
  TraceLog ref;
  TrainingResult ref_res;
  {
    Trainer trainer(tt, tiny_model(), cfg);
    auto attack = make_attack("LIE");
    ref_res =
        trainer.run(*attack, make_aggregator("SignGuard", 1), ref.observer());
  }
  expect_same_tally(ref_res, ref.sum);
  EXPECT_GT(ref_res.dropped, 0u);
  EXPECT_GT(ref_res.stragglers, 0u);
  EXPECT_GT(ref_res.churned, 0u);
  EXPECT_GT(ref_res.decode_rejects, 0u);
  EXPECT_GT(ref_res.deadline_misses, 0u);
  EXPECT_GT(ref_res.lost_uplinks, 0u);
  EXPECT_GT(ref_res.uplink_bytes, 0u);
  EXPECT_LT(ref_res.uplink_decoded_bytes, ref_res.uplink_dense_bytes);

  // Killed at round 7 with checkpoints every 3 rounds (so the latest
  // checkpoint is round 6 — the resume replays round 6 exactly), then
  // resumed to completion.
  cfg.checkpoint.path = path;
  cfg.checkpoint.every = 3;
  cfg.checkpoint.halt_after_round = 7;
  TraceLog killed;
  {
    Trainer trainer(tt, tiny_model(), cfg);
    auto attack = make_attack("LIE");
    const TrainingResult res = trainer.run(
        *attack, make_aggregator("SignGuard", 1), killed.observer());
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(killed.checksums.size(), 7u);
  }
  cfg.checkpoint.halt_after_round = 0;
  cfg.checkpoint.resume = true;
  TraceLog resumed;
  TrainingResult res;
  {
    Trainer trainer(tt, tiny_model(), cfg);
    auto attack = make_attack("LIE");
    res = trainer.run(*attack, make_aggregator("SignGuard", 1),
                      resumed.observer());
    EXPECT_FALSE(res.halted);
  }
  // Rounds 0..5 ran pre-kill; the resumed run replays 6..11. Stitching
  // the pre-kill prefix (up to the checkpoint) to the resumed tail must
  // reproduce the uninterrupted trace bit for bit.
  ASSERT_EQ(resumed.checksums.size(), cfg.rounds - 6);
  std::vector<std::uint64_t> stitched(killed.checksums.begin(),
                                      killed.checksums.begin() + 6);
  stitched.insert(stitched.end(), resumed.checksums.begin(),
                  resumed.checksums.end());
  EXPECT_EQ(stitched, ref.checksums);
  // The run totals ride in the checkpoint: the resumed run reports the
  // uninterrupted run's, dropout and straggler counts included.
  expect_same_tally(res, ref_res);
  EXPECT_EQ(res.skipped_rounds, ref_res.skipped_rounds);
  EXPECT_EQ(res.best_accuracy, ref_res.best_accuracy);
  EXPECT_EQ(res.selection.malicious_rate, ref_res.selection.malicious_rate);
  std::remove(path.c_str());
}

TEST(Checkpoint, ConfigMismatchRefusesToResume) {
  const auto tt = tiny_data();
  const std::string path = tmp_path("mismatch.ckpt");
  // Writes a checkpoint under `written`, then resumes it under `resumed`:
  // the config hash must refuse the file.
  const auto expect_refused = [&](TrainerConfig written,
                                  TrainerConfig resumed) {
    std::remove(path.c_str());
    written.checkpoint.path = path;
    written.checkpoint.every = 2;
    written.checkpoint.halt_after_round = 4;
    {
      Trainer trainer(tt, tiny_model(), written);
      auto attack = make_attack("NoAttack");
      trainer.run(*attack, make_aggregator("Mean", 1), nullptr);
    }
    ASSERT_TRUE(checkpoint_exists(path));
    resumed.checkpoint.path = path;
    resumed.checkpoint.every = 2;
    resumed.checkpoint.resume = true;
    Trainer trainer(tt, tiny_model(), resumed);
    auto attack = make_attack("NoAttack");
    EXPECT_THROW(trainer.run(*attack, make_aggregator("Mean", 1), nullptr),
                 std::runtime_error);
    std::remove(path.c_str());
  };
  TrainerConfig cfg = tiny_config();
  TrainerConfig other = cfg;
  other.seed = 4;  // different run
  expect_refused(cfg, other);
  // Doubles that agree to six decimals are still different runs.
  cfg.lr = 1e-6;
  other = cfg;
  other.lr = 1.4e-6;
  expect_refused(cfg, other);
  cfg.weight_decay = 5e-7;
  other = cfg;
  other.weight_decay = 0.0;
  expect_refused(cfg, other);
}

// ---- Simulated-time accounting --------------------------------------------
// The round clock closes on the slowest DELIVERED uplink (or the deadline
// when one is set and someone is missing): a lost attempt chain is not on
// a synchronous server's critical path, however long it ran.

TEST(SimTime, RunTotalIsSumOfRoundTimes) {
  const auto tt = tiny_data();
  TrainerConfig cfg = tiny_config();
  cfg.chaos.profile = fault_profile_from_name("flaky");  // lossy, deadline 0
  Trainer trainer(tt, tiny_model(), cfg);
  auto attack = make_attack("NoAttack");
  double sum = 0.0;
  std::size_t rounds_seen = 0;
  const auto observer = [&](const RoundObservation& obs) {
    sum += obs.sim_time_ms;
    ++rounds_seen;
  };
  const TrainingResult res =
      trainer.run(*attack, make_aggregator("Mean", 1), observer);
  EXPECT_EQ(rounds_seen, cfg.rounds);
  EXPECT_GT(res.sim_time_ms, 0.0);
  // Exact, not approximate: the trainer accumulates the same doubles in
  // the same order the observer sees them.
  EXPECT_EQ(res.sim_time_ms, sum);
}

TEST(SimTime, RoundTimeIsSlowestDeliveredUplink) {
  const auto tt = tiny_data();
  TrainerConfig cfg = tiny_config();
  // The stock profiles practically never lose a chain (p_drop^attempts),
  // so crank the drop rate until losses are routine — the old accounting
  // (max over ALL chains) then visibly disagrees with delivered-only.
  cfg.chaos.profile = fault_profile_from_name("flaky");
  cfg.chaos.profile.p_drop = 0.5;
  cfg.chaos.profile.max_attempts = 2;
  // Full participation, no churn, no legacy dropout/straggler coins and
  // no deadline: every client transmits every round, so the expected
  // round time is reconstructible from the engine's pure per-(client,
  // round) streams alone.
  Trainer trainer(tt, tiny_model(), cfg);
  auto attack = make_attack("NoAttack");
  std::vector<double> round_ms;
  const auto observer = [&](const RoundObservation& obs) {
    round_ms.push_back(obs.sim_time_ms);
  };
  (void)trainer.run(*attack, make_aggregator("Mean", 1), observer);
  ASSERT_EQ(round_ms.size(), cfg.rounds);

  ChaosEngine engine(
      cfg.n_clients, cfg.chaos,
      common::stream_seed(cfg.seed, common::fnv1a64("signguard.chaos")));
  bool lost_chain_was_slowest = false;
  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    double delivered_max = 0.0, any_max = 0.0;
    for (std::size_t i = 0; i < cfg.n_clients; ++i) {
      const UplinkSim sim = engine.simulate_uplink(i, r);
      any_max = std::max(any_max, sim.elapsed_ms);
      if (sim.delivery == UplinkSim::Delivery::kOnTime ||
          sim.delivery == UplinkSim::Delivery::kCorrupt)
        delivered_max = std::max(delivered_max, sim.elapsed_ms);
    }
    EXPECT_EQ(round_ms[r], delivered_max) << "round " << r;
    lost_chain_was_slowest |= any_max > delivered_max;
  }
  // The distinction must actually have bitten: with the flaky profile's
  // loss rate over 20 clients x 12 rounds, some round's slowest chain is
  // a lost one (which the old accounting wrongly put on the clock).
  EXPECT_TRUE(lost_chain_was_slowest);
}

}  // namespace
}  // namespace signguard::fl
