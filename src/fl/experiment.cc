#include "fl/experiment.h"

#include <cstdlib>
#include <stdexcept>

#include "common/parallel.h"

#include "attacks/byzmean.h"
#include "attacks/lie.h"
#include "attacks/minmax_minsum.h"
#include "attacks/simple_attacks.h"
#include "aggregators/baselines.h"
#include "aggregators/signsgd.h"
#include "core/signguard.h"
#include "data/synth_color.h"
#include "data/synth_image.h"
#include "data/synth_text.h"
#include "nn/models.h"

namespace signguard::fl {

Scale scale_from_env() {
  const char* env = std::getenv("SIGNGUARD_SCALE");
  if (env == nullptr) return Scale::kDefault;
  const std::string s(env);
  if (s == "smoke") return Scale::kSmoke;
  if (s == "full") return Scale::kFull;
  return Scale::kDefault;
}

std::string to_string(Scale s) {
  switch (s) {
    case Scale::kSmoke:
      return "smoke";
    case Scale::kFull:
      return "full";
    case Scale::kDefault:
      break;
  }
  return "default";
}

std::string runtime_summary(Scale s) {
  return "scale=" + to_string(s) +
         " threads=" + std::to_string(common::thread_count()) +
         " (set SIGNGUARD_SCALE=smoke|default|full, SIGNGUARD_THREADS=N)";
}

namespace {

std::size_t rounds_for(Scale s, std::size_t smoke, std::size_t def,
                       std::size_t full) {
  switch (s) {
    case Scale::kSmoke:
      return smoke;
    case Scale::kFull:
      return full;
    case Scale::kDefault:
      break;
  }
  return def;
}

}  // namespace

std::string workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kMnistLike:
      return "MNIST-like";
    case WorkloadKind::kFashionLike:
      return "Fashion-like";
    case WorkloadKind::kCifarLike:
      return "CIFAR-like";
    case WorkloadKind::kAgNewsLike:
      break;
  }
  return "AGNews-like";
}

WorkloadKind workload_kind_from_name(const std::string& name) {
  for (const WorkloadKind kind : all_workloads())
    if (workload_name(kind) == name) return kind;
  throw std::invalid_argument("unknown workload: " + name);
}

const std::vector<WorkloadKind>& all_workloads() {
  static const std::vector<WorkloadKind> kAll = {
      WorkloadKind::kMnistLike, WorkloadKind::kFashionLike,
      WorkloadKind::kCifarLike, WorkloadKind::kAgNewsLike};
  return kAll;
}

std::string to_string(ModelProfile p) {
  return p == ModelProfile::kGrid ? "grid" : "paper";
}

Workload make_workload(WorkloadKind kind, ModelProfile profile, Scale scale) {
  Workload w;
  w.name = workload_name(kind);
  w.config.n_clients = 50;
  w.config.byzantine_frac = 0.2;
  w.config.batch_size = 8;
  w.config.lr = 0.15;
  w.config.eval_every = 25;
  w.config.eval_max_samples = 1000;
  w.config.rounds = rounds_for(scale, 30, 100, 300);

  switch (kind) {
    case WorkloadKind::kMnistLike:
    case WorkloadKind::kFashionLike: {
      w.data = data::make_synth_image(kind == WorkloadKind::kMnistLike
                                          ? data::mnist_like_config()
                                          : data::fashion_like_config());
      if (profile == ModelProfile::kGrid) {
        w.model_factory = [](std::uint64_t seed) {
          return nn::make_mlp(256, 32, 10, seed);
        };
      } else {
        w.model_factory = [](std::uint64_t seed) {
          return nn::make_small_cnn(16, 10, seed);
        };
      }
      break;
    }
    case WorkloadKind::kCifarLike: {
      w.data = data::make_synth_color(data::SynthColorConfig{});
      if (profile == ModelProfile::kGrid) {
        w.model_factory = [](std::uint64_t seed) {
          return nn::make_mlp(768, 24, 10, seed);
        };
      } else {
        w.model_factory = [](std::uint64_t seed) {
          return nn::make_color_cnn(16, 10, seed);
        };
      }
      break;
    }
    case WorkloadKind::kAgNewsLike: {
      w.data = data::make_synth_text(data::SynthTextConfig{});
      w.config.lr = 0.2;  // bag/RNN text models train well a bit hotter
      if (profile == ModelProfile::kGrid) {
        w.model_factory = [](std::uint64_t seed) {
          return nn::make_embed_bag_text(1000, 16, 4, seed);
        };
      } else {
        w.model_factory = [](std::uint64_t seed) {
          return nn::make_text_rnn(1000, 16, 32, 4, seed);
        };
      }
      break;
    }
  }
  return w;
}

std::unique_ptr<attacks::Attack> make_attack(const std::string& name) {
  using namespace attacks;
  if (name == "NoAttack") return std::make_unique<NoAttack>();
  if (name == "Random") return std::make_unique<RandomAttack>();
  if (name == "Noise") return std::make_unique<NoiseAttack>();
  if (name == "LabelFlip") return std::make_unique<LabelFlipAttack>();
  if (name == "ByzMean") return std::make_unique<ByzMeanAttack>();
  if (name == "SignFlip") return std::make_unique<SignFlipAttack>();
  if (name == "LIE") return std::make_unique<LieAttack>(0.3);
  if (name == "MinMax") return std::make_unique<MinMaxAttack>();
  if (name == "MinSum") return std::make_unique<MinSumAttack>();
  if (name == "Reverse") return std::make_unique<ReverseScalingAttack>(3.0);
  throw std::invalid_argument("unknown attack: " + name);
}

std::unique_ptr<agg::Aggregator> make_aggregator(const std::string& name,
                                                 std::uint64_t seed) {
  using namespace agg;
  using namespace core;
  if (name == "Mean") return std::make_unique<MeanAggregator>();
  if (name == "TrMean") return std::make_unique<TrimmedMeanAggregator>();
  if (name == "Median") return std::make_unique<MedianAggregator>();
  if (name == "GeoMed") return std::make_unique<GeoMedAggregator>();
  if (name == "Multi-Krum") return std::make_unique<MultiKrumAggregator>();
  if (name == "Bulyan") return std::make_unique<BulyanAggregator>();
  if (name == "DnC") return std::make_unique<DnCAggregator>();
  if (name == "SignSGD") return std::make_unique<SignSgdMajorityAggregator>();
  if (name == "SignGuard")
    return std::make_unique<SignGuard>(plain_config(seed));
  if (name == "SignGuard-Sim")
    return std::make_unique<SignGuard>(sim_config(seed));
  if (name == "SignGuard-Dist")
    return std::make_unique<SignGuard>(dist_config(seed));
  throw std::invalid_argument("unknown aggregator: " + name);
}

const std::vector<std::string>& table1_attacks() {
  static const std::vector<std::string> kAttacks = {
      "NoAttack", "Random", "Noise",  "LabelFlip", "ByzMean",
      "SignFlip", "LIE",    "MinMax", "MinSum"};
  return kAttacks;
}

const std::vector<std::string>& table1_defenses() {
  static const std::vector<std::string> kDefenses = {
      "Mean",   "TrMean",  "Median",    "GeoMed",        "Multi-Krum",
      "Bulyan", "DnC",     "SignSGD",   "SignGuard",     "SignGuard-Sim",
      "SignGuard-Dist"};
  return kDefenses;
}

}  // namespace signguard::fl
