#pragma once
// Training metrics: accuracy evaluation, per-round history, best-accuracy
// tracking (Table I reports best achieved test accuracy), attack impact
// (Definition 3), and honest/malicious selection-rate accounting
// (Table II).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/model.h"

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

struct TrainingResult {
  std::vector<RoundRecord> history;
  double best_accuracy = 0.0;
  double final_accuracy = 0.0;
  SelectionStats selection;
  // Uplink transport totals over the whole run (zero while the transport
  // layer is off): encoded bytes actually sent, the float32 cost of the
  // same updates, and how many uplinks the wire decoder rejected.
  std::uint64_t uplink_bytes = 0;
  std::uint64_t uplink_dense_bytes = 0;
  std::size_t decode_rejects = 0;
  // Dense bytes the server-side aggregation pipeline materialized from
  // accepted uplinks: every accepted uplink's 4d on the decode path,
  // only the trusted set's on the compressed-domain SignGuard path — the
  // whole point of filtering on wire bytes.
  std::uint64_t uplink_decoded_bytes = 0;
  // Degradation accounting (fl/chaos.h): rounds that did not apply a
  // normal aggregate. skipped_rounds counts every skip (quorum-starved
  // plus the no-honest-participant skips that predate the chaos engine);
  // the fallback counters split out the quorum policy's degraded-but-
  // applied rounds. Sweep summaries read these directly — skipped rounds
  // used to be visible only through the per-round observer.
  std::size_t skipped_rounds = 0;
  std::size_t fallback_cmean_rounds = 0;
  std::size_t fallback_prev_rounds = 0;
  // Chaos totals over the run (zero while the chaos engine is off).
  std::size_t churned_total = 0;         // client-rounds missed to churn
  std::size_t deadline_miss_total = 0;   // uplinks that became stragglers
  std::size_t lost_uplink_total = 0;     // uplinks dropped on every attempt
  std::uint64_t uplink_attempts = 0;     // transmissions incl. retries
  double sim_time_ms = 0.0;              // summed simulated round time
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
