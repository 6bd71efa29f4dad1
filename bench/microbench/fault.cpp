// fault suite: what the chaos engine costs and what it does to
// robustness, on one pool thread (determinism across thread counts is
// pinned by tests/test_chaos.cc):
//   - robustness: SignGuard-vs-SignFlip best accuracy plus the fault
//     accounting (churn, deadline misses, lost uplinks, retry overhead)
//     across the fault-profile presets (none/lan/wan/flaky/mobile),
//   - engine: raw chaos-engine query throughput — the per-(client, round)
//     overhead the trainer pays for uplink simulation and churn lookups,
//   - checkpoint: save/restore throughput of the crash-consistent
//     checkpoint path (checksummed + fsync'd atomic writes), with a
//     payload round-trip self-check,
//   - recovery: a kill-at-round-8 + resume run compared bitwise against
//     the uninterrupted run via per-round aggregate checksums — a
//     self-check, so the run cannot pass while crash recovery silently
//     breaks.
//
// Entries: no params, usec 0; the value is in the entry's unit.

#include <cstdio>
#include <string>
#include <vector>

#include "data/synth_image.h"
#include "fl/chaos.h"
#include "fl/checkpoint.h"
#include "fl/experiment.h"
#include "fl/trainer.h"
#include "microbench.h"
#include "nn/models.h"

namespace signguard::microbench {
namespace {

using bench::Stopwatch;

constexpr std::size_t kRounds = 16;

data::TrainTest bench_data() {
  data::SynthImageConfig cfg;
  cfg.train_per_class = 60;
  cfg.test_per_class = 20;
  cfg.seed = 5;
  return data::make_synth_image(cfg);
}

fl::TrainerConfig base_config() {
  fl::TrainerConfig cfg;
  cfg.n_clients = 24;
  cfg.byzantine_frac = 0.25;
  cfg.rounds = kRounds;
  cfg.batch_size = 8;
  cfg.lr = 0.2;
  cfg.eval_every = 4;
  cfg.eval_max_samples = 0;
  cfg.seed = 3;
  return cfg;
}

fl::ModelFactory bench_model() {
  return [](std::uint64_t seed) { return nn::make_mlp(256, 16, 10, seed); };
}

// ---- accuracy & fault accounting across the profile presets ----------------

void bench_robustness(Run& run, const data::TrainTest& tt) {
  for (const auto& name : fl::fault_profile_names()) {
    fl::TrainerConfig cfg = base_config();
    cfg.chaos.profile = fl::fault_profile_from_name(name);
    if (!cfg.chaos.profile.none()) {
      // A deadline four medians out and mild churn: faults visible every
      // few rounds without starving the aggregator outright.
      cfg.chaos.deadline_ms = 4.0 * cfg.chaos.profile.latency_median_ms;
      cfg.chaos.churn_leave_prob = 0.05;
    }
    fl::Trainer trainer(tt, bench_model(), cfg);
    auto attack = fl::make_attack("SignFlip");
    Stopwatch w;
    const fl::TrainingResult res =
        trainer.run(*attack, fl::make_aggregator("SignGuard", 1), nullptr);
    const double wall_ms = w.seconds() * 1e3;
    run.record("robustness", name + "_best_acc", res.best_accuracy, "%");
    run.record("robustness", name + "_wall", wall_ms, "ms");
    if (!cfg.chaos.active()) continue;
    const double transmitted =
        double(kRounds * cfg.n_clients) - double(res.churned);
    run.record("robustness", name + "_churned", double(res.churned),
               "client-rounds");
    run.record("robustness", name + "_deadline_misses",
               double(res.deadline_misses), "uplinks");
    run.record("robustness", name + "_lost", double(res.lost_uplinks),
               "uplinks");
    if (transmitted > 0)
      run.record("robustness", name + "_attempts_per_uplink",
                 double(res.uplink_attempts) / transmitted, "x");
    run.record("robustness", name + "_sim_round_time",
               res.sim_time_ms / double(kRounds), "ms");
  }
}

// ---- raw engine query throughput -------------------------------------------

void bench_engine(Run& run) {
  fl::ChaosConfig cfg;
  cfg.profile = fl::fault_profile_from_name("wan");
  cfg.deadline_ms = 500.0;
  cfg.churn_leave_prob = 0.1;
  constexpr std::size_t kClients = 4096;
  constexpr std::size_t kQueries = 200'000;
  fl::ChaosEngine engine(kClients, cfg, 99);
  volatile double sink = 0.0;
  Stopwatch wu;
  for (std::size_t i = 0; i < kQueries; ++i)
    sink = sink +
           engine.simulate_uplink(i % kClients, i / kClients).elapsed_ms;
  run.record("engine", "simulate_uplink",
             double(kQueries) / wu.seconds() / 1e6, "Mqueries/s");
  // Churn lookups hit the lazily built per-client schedule cache after
  // the first touch — this measures the steady-state (cached) rate.
  std::size_t up = 0;
  Stopwatch wc;
  for (std::size_t i = 0; i < kQueries; ++i)
    up += engine.client_up(i % kClients, i / kClients) ? 1 : 0;
  run.record("engine", "client_up", double(kQueries) / wc.seconds() / 1e6,
             "Mqueries/s");
  run.record("engine", "client_up_fraction", double(up) / double(kQueries),
             "");
}

// ---- checkpoint file I/O ---------------------------------------------------

void bench_checkpoint_io(Run& run) {
  const std::string path = "/tmp/signguard_fault_bench.ckpt";
  // A payload the size of a mid-size trainer checkpoint (model parameters
  // dominate): 32 MB of non-trivial bytes.
  std::string payload(std::size_t(32) << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = char((i * 2654435761u) >> 24);
  const double mb = double(payload.size()) / double(1u << 20);
  Stopwatch ws;
  fl::write_checkpoint_file(path, payload);
  const double save_s = ws.seconds();
  Stopwatch wr;
  const std::string back = fl::read_checkpoint_file(path);
  const double load_s = wr.seconds();
  std::remove(path.c_str());
  run.check(back == payload, "checkpoint payload round-trip mismatch");
  run.record("checkpoint", "save", mb / save_s, "MB/s");
  run.record("checkpoint", "restore", mb / load_s, "MB/s");
}

// ---- kill + resume self-check ----------------------------------------------

std::vector<std::uint64_t> run_traced(fl::TrainerConfig cfg,
                                      const data::TrainTest& tt) {
  std::vector<std::uint64_t> checksums;
  const auto observer = [&](const fl::RoundObservation& obs) {
    checksums.push_back(obs.aggregate.empty()
                            ? 0
                            : common::fnv1a64(obs.aggregate.data(),
                                              obs.aggregate.size() *
                                                  sizeof(float)));
  };
  fl::Trainer trainer(tt, bench_model(), cfg);
  auto attack = fl::make_attack("LIE");
  trainer.run(*attack, fl::make_aggregator("SignGuard", 1), observer);
  return checksums;
}

void bench_recovery(Run& run, const data::TrainTest& tt) {
  const std::string path = "/tmp/signguard_fault_bench_resume.ckpt";
  std::remove(path.c_str());
  fl::TrainerConfig cfg = base_config();
  cfg.chaos.profile = fl::fault_profile_from_name("flaky");
  cfg.chaos.deadline_ms = 300.0;
  cfg.chaos.churn_leave_prob = 0.1;

  const std::vector<std::uint64_t> ref = run_traced(cfg, tt);

  const std::size_t kill_at = kRounds / 2;
  const std::size_t ckpt_every = 3;
  cfg.checkpoint.path = path;
  cfg.checkpoint.every = ckpt_every;
  cfg.checkpoint.halt_after_round = kill_at;
  Stopwatch wk;
  const std::vector<std::uint64_t> killed = run_traced(cfg, tt);
  const double killed_ms = wk.seconds() * 1e3;
  cfg.checkpoint.halt_after_round = 0;
  cfg.checkpoint.resume = true;
  Stopwatch wr;
  const std::vector<std::uint64_t> resumed = run_traced(cfg, tt);
  const double resumed_ms = wr.seconds() * 1e3;
  std::remove(path.c_str());

  // The durable state at the kill is the last every-boundary before it
  // (the halt does not force a save); stitch the durable prefix of the
  // killed run to the resumed tail and compare against the reference.
  const std::size_t durable = (kill_at / ckpt_every) * ckpt_every;
  std::vector<std::uint64_t> stitched(killed.begin(),
                                      killed.begin() + durable);
  stitched.insert(stitched.end(), resumed.begin(), resumed.end());
  const bool ok = stitched == ref && killed.size() == kill_at &&
                  resumed.size() == kRounds - durable;
  run.record("recovery", "kill_run_wall", killed_ms, "ms");
  run.record("recovery", "resume_run_wall", resumed_ms, "ms");
  run.record("recovery", "bitwise_identical", ok ? 1.0 : 0.0, "");
  run.check(ok, "kill+resume trace diverges from the uninterrupted run");
}

}  // namespace

void fault_suite(Run& run) {
  const data::TrainTest tt = bench_data();
  bench_robustness(run, tt);
  bench_engine(run);
  bench_checkpoint_io(run);
  bench_recovery(run, tt);
}

}  // namespace signguard::microbench
