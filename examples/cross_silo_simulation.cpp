// Example: a "kitchen-sink" cross-silo simulation combining every system
// dimension the library models at once —
//   * non-IID data (sort-and-partition, s = 0.5),
//   * partial participation (60% of clients sampled per round),
//   * failure injection (5% client dropout, 5% straggler skip per round),
//   * client-side history (momentum buffers on the clients),
//   * a time-varying adversary re-rolling its attack every epoch,
//   * SignGuard-Sim defense.
//
//   ./cross_silo_simulation
//
// This is the closest configuration to a production federated deployment
// the paper's threat model describes; the run prints the accuracy curve
// and the defense's cumulative selection quality.

#include <cstdio>

#include "attacks/time_varying.h"
#include "fl/experiment.h"
#include "fl/trainer.h"

int main() {
  using namespace signguard;

  const auto scale = fl::scale_from_env();
  fl::Workload w = fl::make_workload(fl::WorkloadKind::kFashionLike,
                                     fl::ModelProfile::kGrid, scale);
  w.config.noniid = true;
  w.config.noniid_s = 0.5;
  w.config.participation = 0.6;
  w.config.dropout_prob = 0.05;    // failure injection: lost clients...
  w.config.straggler_prob = 0.05;  // ...and updates that arrive too late
  w.config.momentum = 0.0;         // history lives on the clients instead
  w.config.client_momentum = 0.9;
  w.config.lr = 0.02;              // buffered gradients are ~10x larger
  w.config.eval_every = std::max<std::size_t>(5, w.config.rounds / 12);

  std::printf(
      "cross-silo simulation: %s, non-IID s=%.1f, %.0f%% participation, "
      "%.0f%% dropout, %.0f%% stragglers, client momentum %.1f, "
      "%.0f%% Byzantine, time-varying attack\n\n",
      w.name.c_str(), w.config.noniid_s, 100.0 * w.config.participation,
      100.0 * w.config.dropout_prob, 100.0 * w.config.straggler_prob,
      w.config.client_momentum, 100.0 * w.config.byzantine_frac);

  fl::Trainer trainer(w.data, w.model_factory, w.config);
  attacks::TimeVaryingAttack attack(
      std::max<std::size_t>(1, w.config.rounds / 12), /*seed=*/2026);

  const auto res = trainer.run(
      attack, fl::make_aggregator("SignGuard-Sim"),
      [&](const fl::RoundObservation& obs) {
        if (obs.test_accuracy)
          std::printf("  round %3zu  accuracy %5.2f%%\n", obs.round + 1,
                      *obs.test_accuracy);
      });

  std::printf("\nbest accuracy: %.2f%%\n", res.best_accuracy);
  std::printf("selection quality: honest kept %.3f, malicious kept %.3f "
              "(over %zu rounds)\n",
              res.selection.honest_rate, res.selection.malicious_rate,
              res.selection.rounds);
  std::printf("failures injected: %zu dropouts, %zu stragglers, "
              "%zu rounds without an honest update\n",
              res.dropped, res.stragglers, res.skipped_rounds);
  return 0;
}
