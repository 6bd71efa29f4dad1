#pragma once
// Runs one workload job through public APIs and records what the
// end-to-end and per-layer metrics are computed from.
//
// Round wall time comes from a forwarding decorator around the Attack:
// the trainer calls Attack::begin_round(r) at the top of every round, so
// round r spans begin_round(r) .. begin_round(r + 1) (the last round ends
// when run() returns) and includes that round's checkpoint save. The
// GAR is never wrapped: the trainer dynamic_casts it to find SignGuard
// (the wire path) and ShardedAggregator (shard accounting).

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/gradient_matrix.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace signguard::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Process CPU time (user + system, all threads) in seconds.
double process_cpu_seconds();
// Peak resident set size of the process (VmHWM) in MiB.
double peak_rss_mb();

// One round's aggregation input, captured inside Attack::craft: the
// crafted Byzantine rows first, then the benign rows the attacker saw.
// With a codec the rows are kept as wire buffers (a dense copy of the
// flagship round would add 1 GB); without one as a dense matrix.
struct RoundSnapshot {
  bool taken = false;
  std::size_t m = 0, d = 0;  // Byzantine rows, dimension
  common::GradientMatrix dense;
  std::vector<std::vector<std::uint8_t>> uplinks;
  std::vector<float> sample_row;  // first benign row, dense
};

struct JobOptions {
  bool traced = false;      // MetricsRegistry(timing=true) in the config
  bool capture = false;     // snapshot Workload::capture_round
  bool setup_only = false;  // stop at begin_round(0): set-up time only
};

struct TrainerJobResult {
  double synth_s = 0.0;     // dataset construction
  double setup_s = 0.0;     // job start .. begin_round(0)
  double prologue_s = 0.0;  // run() entry .. begin_round(0)
  double run_s = 0.0;       // run() entry .. return
  double cpu_s = 0.0;       // process CPU over run()
  std::vector<double> round_ms;
  double time_to_target_s = -1.0;  // job start .. first eval >= target
  std::vector<std::pair<std::size_t, double>> evals;  // (round, accuracy)
  double acc_best = 0.0;
  double mal_pass = -1.0;  // < 0: the rule reports no selection
  std::size_t attempted = 0;
  std::size_t failed = 0;  // skipped or degraded rounds
  std::uint64_t uplink_bytes = 0;
  std::uint64_t transmitters = 0;  // uplinks sent (chaos accounting)
  std::vector<std::uint64_t> checksums;  // FNV-1a of each round's aggregate
  bool finite = true;                    // every aggregate value finite
  double craft_ms = 0.0;
  std::size_t craft_calls = 0;
  std::size_t dim = 0;
  std::vector<obs::RoundCost> costs;  // traced jobs only
  RoundSnapshot snapshot;
};

TrainerJobResult run_trainer_job(const Workload& w, const JobOptions& opt);

struct SweepJobResult {
  double prologue_s = 0.0;  // dataset + model factory construction
  double wall_s = 0.0;      // fl::run_sweep call
  double cpu_s = 0.0;
  std::vector<fl::ScenarioResult> cells;
};

// `prologue_only` times the serial prologue and skips the sweep.
SweepJobResult run_sweep_job(const Workload& w, bool traced,
                             bool prologue_only = false);

}  // namespace signguard::e2e
