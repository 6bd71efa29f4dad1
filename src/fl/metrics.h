#pragma once
// Training metrics: the per-round tally a run sums, accuracy evaluation,
// per-round history, best-accuracy tracking (Table I reports best
// achieved test accuracy), attack impact (Definition 3), and
// honest/malicious selection-rate accounting (Table II).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/model.h"

namespace signguard::common {
class ByteIo;
}

namespace signguard::fl {

struct RoundRecord {
  std::size_t round = 0;
  double test_accuracy = 0.0;
};

// Average fraction of honest / malicious gradients admitted to the trusted
// set by a selecting aggregation rule, over the rounds where selection
// information was reported.
struct SelectionStats {
  double honest_rate = 0.0;
  double malicious_rate = 0.0;
  std::size_t rounds = 0;

  void accumulate(std::span<const std::size_t> selected,
                  std::size_t n_byzantine, std::size_t n_total);
};

// The counts a round incurs and a run sums, declared once: the base of
// both the per-round RoundObservation and the run's TrainingResult, so
// the trainer sums a round into the run with one +=. Transport fields are
// zero while the transport layer is off, chaos fields while the chaos
// engine is off.
struct RoundTally {
  std::size_t dropped = 0;     // clients lost to dropout injection
  std::size_t stragglers = 0;  // clients whose update arrived too late
  // Transport accounting. A rejected uplink was still paid for, so it
  // counts in the byte totals.
  std::size_t decode_rejects = 0;        // uplinks the wire decoder refused
  std::uint64_t uplink_bytes = 0;        // encoded bytes sent
  std::uint64_t uplink_dense_bytes = 0;  // float32 cost of the same updates
  // Dense bytes the server-side aggregation pipeline materialized from
  // accepted uplinks: n_eff * 4d on the decode path, only |trusted set|
  // * 4d on the compressed-domain SignGuard path (comm/stats.h). The
  // in-place decode of benign rows that feeds the simulated omniscient
  // attacker is a harness artifact and is not billed here.
  std::uint64_t uplink_decoded_bytes = 0;
  // Chaos accounting (fl/chaos.h).
  std::size_t churned = 0;            // selected clients absent to churn
  std::size_t deadline_misses = 0;    // uplinks late past the deadline
  std::size_t lost_uplinks = 0;       // uplinks dropped on every attempt
  std::uint64_t uplink_attempts = 0;  // transmissions incl. retries
  // Simulated wall-clock of the uplink phase: the deadline when any
  // transmitter ran past it, else the slowest DELIVERED uplink's
  // attempt-chain time. A lost uplink (or, with no deadline, one that
  // would have been late) never extends the round — a synchronous server
  // closes the round on the updates it actually received.
  double sim_time_ms = 0.0;

  RoundTally& operator+=(const RoundTally& o);
  // One field list for checkpoint save and load (common::ByteIo).
  void tally_fields(common::ByteIo& io);
};

// A run's results: the summed RoundTally plus the accuracy history and
// selection rates the paper's tables report.
struct TrainingResult : RoundTally {
  std::vector<RoundRecord> history;
  double best_accuracy = 0.0;
  double final_accuracy = 0.0;
  SelectionStats selection;
  // Degradation accounting (fl/chaos.h): rounds that did not apply a
  // normal aggregate. skipped_rounds counts every skip (quorum-starved
  // plus the no-honest-participant skips that predate the chaos engine);
  // the fallback counters split out the quorum policy's degraded-but-
  // applied rounds.
  std::size_t skipped_rounds = 0;
  std::size_t fallback_cmean_rounds = 0;
  std::size_t fallback_prev_rounds = 0;
  // True when the run stopped early at CheckpointConfig::halt_after_round
  // (the simulated-kill switch) rather than completing cfg.rounds.
  bool halted = false;
};

// Definition 3: attack impact = baseline accuracy - achieved accuracy.
double attack_impact(double baseline_accuracy, double achieved_accuracy);

// Test accuracy (percent) of `model` with its current parameters, over at
// most `max_samples` test samples (0 = all), evaluated in mini-batches.
double evaluate_accuracy(nn::Model& model, const data::Dataset& test,
                         std::size_t batch_size = 256,
                         std::size_t max_samples = 0);

}  // namespace signguard::fl
