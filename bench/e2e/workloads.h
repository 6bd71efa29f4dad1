#pragma once
// The four end-to-end workloads, built from public APIs only. Every
// random input (dataset archetypes, trainer streams, GAR seed, sweep
// seed) derives from the one --seed argument, so a seed fixes the whole
// job and the program receives only generated inputs.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "attacks/attack.h"
#include "data/synth_image.h"
#include "fl/sweep.h"
#include "fl/trainer.h"

namespace signguard::e2e {

// kFull is the measured shape; kSmoke keeps each workload's structure
// (same model family, codec, GAR tree, chaos and quorum settings) at a
// size the self-test runs in seconds.
enum class Size { kFull, kSmoke };

// One synchronous training job: Trainer::run on a freshly built dataset.
struct TrainerJob {
  std::function<data::TrainTest()> make_data;
  fl::ModelFactory model_factory;
  fl::TrainerConfig config;
  std::function<std::unique_ptr<attacks::Attack>()> make_attack;
  std::function<std::unique_ptr<agg::Aggregator>()> make_gar;
  // First eval at or above this accuracy (percent) stops the
  // time-to-target clock.
  double target_acc = 0.0;
  // A job whose best accuracy ends below this is not correct.
  double acc_floor = 0.0;
};

// One fl::run_sweep grid plus the serial prologue run_sweep performs
// before its parallel region (dataset + model factory construction).
struct SweepJob {
  std::vector<fl::ScenarioSpec> specs;
  std::function<void()> prologue;
  // The SignGuard cells' best accuracies (percent) must average at least
  // `signguard_mean_floor`, and each must reach `signguard_cell_floor`.
  // A 12-round cell's accuracy moves by several points with the seed, so
  // the per-cell floor only rules out a collapse to chance (10%).
  double signguard_mean_floor = 0.0;
  double signguard_cell_floor = 0.0;
};

struct Workload {
  std::string name;
  bool is_sweep = false;
  TrainerJob trainer;  // when !is_sweep
  SweepJob sweep;      // when is_sweep
  // Round index whose matrix the probe pass snapshots (trainer jobs).
  std::size_t capture_round = 0;
};

const std::vector<std::string>& workload_names();

// Throws std::invalid_argument on an unknown name. `workdir` receives the
// workload's checkpoint files (xdevice_4096 only).
Workload make_workload(const std::string& name, std::uint64_t seed, Size size,
                       const std::string& workdir);

// The 11 aggregation rules of the Table-I grid, in table row order.
const std::vector<std::string>& table1_gars();

}  // namespace signguard::e2e
