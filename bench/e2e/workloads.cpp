#include "workloads.h"

#include <stdexcept>

#include "aggregators/sharded.h"
#include "common/hash.h"
#include "data/synth_color.h"
#include "fl/experiment.h"
#include "nn/models.h"

namespace signguard::e2e {
namespace {

// Independent per-purpose seeds under the one --seed root.
std::uint64_t derive(std::uint64_t seed, const char* purpose) {
  return common::stream_seed(seed, common::fnv1a64(purpose));
}

bool full(Size s) { return s == Size::kFull; }

// The paper's Table-I cell: MNIST-like data, the paper CNN, n=50 with 20%
// Byzantine clients running LIE against SignGuard, no uplink codec.
Workload cell_cnn(std::uint64_t seed, Size size) {
  Workload w;
  w.name = "cell_cnn";
  TrainerJob& j = w.trainer;
  const std::uint64_t data_seed = derive(seed, "e2e.data");
  j.make_data = [data_seed] {
    return data::make_synth_image(data::mnist_like_config(data_seed));
  };
  j.model_factory = [](std::uint64_t s) {
    return nn::make_small_cnn(16, 10, s);
  };
  fl::TrainerConfig& c = j.config;
  c.n_clients = 50;
  c.byzantine_frac = 0.2;
  c.batch_size = 8;
  c.lr = 0.05;
  c.rounds = full(size) ? 400 : 20;
  c.eval_every = full(size) ? 25 : 10;
  c.eval_max_samples = 1000;
  c.seed = derive(seed, "e2e.trainer");
  j.make_attack = [] { return fl::make_attack("LIE"); };
  const std::uint64_t gar_seed = derive(seed, "e2e.gar");
  j.make_gar = [gar_seed] { return fl::make_aggregator("SignGuard", gar_seed); };
  j.target_acc = full(size) ? 90.0 : 10.0;
  j.acc_floor = j.target_acc;
  w.capture_round = c.rounds / 2;
  return w;
}

// Reproducing Table I: 11 rules x 9 attacks on the grid MLP, one cell
// per pool worker.
Workload table1_grid(std::uint64_t seed, Size size) {
  Workload w;
  w.name = "table1_grid";
  w.is_sweep = true;
  fl::SweepGrid g;
  g.workloads = {fl::WorkloadKind::kMnistLike};
  g.profile = fl::ModelProfile::kGrid;
  g.attacks = fl::table1_attacks();
  g.gars = table1_gars();
  g.n_clients = 50;
  g.rounds = full(size) ? 12 : 2;
  g.seed = seed;
  w.sweep.specs = g.expand();
  w.sweep.prologue = [] {
    fl::make_workload(fl::WorkloadKind::kMnistLike, fl::ModelProfile::kGrid,
                      fl::Scale::kDefault);
  };
  // Over 21 seeds the SignGuard cells averaged 56-62% and the lowest
  // single cell (SignFlip) read 38.4%.
  w.sweep.signguard_mean_floor = full(size) ? 45.0 : 0.0;
  w.sweep.signguard_cell_floor = full(size) ? 20.0 : 0.0;
  return w;
}

// The flagship SignGuard round: n=256 (51 Byzantine) ByzMean clients,
// a d=1,012,710 MLP on CIFAR-like data, sign1 uplinks filtered on the
// wire (the default compressed-domain path).
Workload flagship_sign1(std::uint64_t seed, Size size) {
  Workload w;
  w.name = "flagship_sign1";
  TrainerJob& j = w.trainer;
  const std::uint64_t data_seed = derive(seed, "e2e.data");
  j.make_data = [data_seed] {
    data::SynthColorConfig dc;
    dc.seed = data_seed;
    return data::make_synth_color(dc);
  };
  const std::size_t hidden = full(size) ? 1300 : 64;
  j.model_factory = [hidden](std::uint64_t s) {
    return nn::make_mlp(768, hidden, 10, s);
  };
  fl::TrainerConfig& c = j.config;
  c.n_clients = full(size) ? 256 : 32;
  c.byzantine_frac = 0.2;
  c.batch_size = 8;
  c.lr = 0.15;
  c.rounds = full(size) ? 8 : 4;
  c.eval_every = full(size) ? 4 : 2;
  c.eval_max_samples = 1000;
  c.compression.codec = comm::CodecKind::kSign1;
  c.compression.chunk = 4096;
  c.seed = derive(seed, "e2e.trainer");
  j.make_attack = [] { return fl::make_attack("ByzMean"); };
  const std::uint64_t gar_seed = derive(seed, "e2e.gar");
  j.make_gar = [gar_seed] { return fl::make_aggregator("SignGuard", gar_seed); };
  j.target_acc = full(size) ? 60.0 : 10.0;
  j.acc_floor = full(size) ? 50.0 : 10.0;
  w.capture_round = c.rounds / 2;
  return w;
}

// A cross-device cohort: n=4096 LIE clients on a mobile fault profile,
// sharded Multi-Krum, a quorum policy and periodic checkpoints.
Workload xdevice_4096(std::uint64_t seed, Size size,
                      const std::string& workdir) {
  Workload w;
  w.name = "xdevice_4096";
  TrainerJob& j = w.trainer;
  const std::uint64_t data_seed = derive(seed, "e2e.data");
  j.make_data = [data_seed] {
    return data::make_synth_image(data::mnist_like_config(data_seed));
  };
  j.model_factory = [](std::uint64_t s) {
    return nn::make_mlp(256, 32, 10, s);
  };
  fl::TrainerConfig& c = j.config;
  c.n_clients = full(size) ? 4096 : 256;
  c.byzantine_frac = 0.2;
  c.batch_size = 8;
  c.lr = 0.15;
  c.rounds = full(size) ? 30 : 6;
  c.eval_every = full(size) ? 15 : 3;
  c.eval_max_samples = 1000;
  c.chaos.profile = fl::fault_profile_from_name("mobile");
  c.chaos.deadline_ms = 1500.0;
  c.chaos.churn_leave_prob = 0.05;
  c.quorum.min_participants = full(size) ? 1024 : 64;
  c.quorum.action = fl::DegradeAction::kClippedMean;
  c.checkpoint.path = workdir + "/xdevice_4096.ckpt";
  c.checkpoint.every = full(size) ? 10 : 2;
  c.seed = derive(seed, "e2e.trainer");
  j.make_attack = [] { return fl::make_attack("LIE"); };
  const std::uint64_t gar_seed = derive(seed, "e2e.gar");
  const std::size_t shards = full(size) ? 16 : 4;
  j.make_gar = [gar_seed, shards]() -> std::unique_ptr<agg::Aggregator> {
    agg::ShardedConfig sc;
    sc.shards = shards;
    sc.merge = agg::ShardMerge::kWeightedMean;
    return std::make_unique<agg::ShardedAggregator>(
        [](std::uint64_t s) { return fl::make_aggregator("Multi-Krum", s); },
        gar_seed, sc);
  };
  // LIE defeats Multi-Krum here on some seeds (accuracy collapses late in
  // the run), so this workload sets no accuracy floor.
  j.target_acc = full(size) ? 50.0 : 10.0;
  w.capture_round = c.rounds / 2;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "cell_cnn", "table1_grid", "flagship_sign1", "xdevice_4096"};
  return kNames;
}

const std::vector<std::string>& table1_gars() {
  static const std::vector<std::string> kGars = {
      "Mean",      "TrMean", "Median",  "GeoMed",        "Multi-Krum",
      "Bulyan",    "DnC",    "SignSGD", "SignGuard-Sim", "SignGuard-Dist",
      "SignGuard"};
  return kGars;
}

Workload make_workload(const std::string& name, std::uint64_t seed, Size size,
                       const std::string& workdir) {
  if (name == "cell_cnn") return cell_cnn(seed, size);
  if (name == "table1_grid") return table1_grid(seed, size);
  if (name == "flagship_sign1") return flagship_sign1(seed, size);
  if (name == "xdevice_4096") return xdevice_4096(seed, size, workdir);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace signguard::e2e
