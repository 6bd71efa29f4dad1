#pragma once
// Experiment harness shared by the bench binaries and examples: named
// construction of workloads (dataset + model + tuned trainer config),
// attacks and aggregation rules, plus the SIGNGUARD_SCALE=smoke|default|full
// environment knob that scales round counts to the available time budget.

#include <memory>
#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "attacks/attack.h"
#include "fl/trainer.h"

namespace signguard::fl {

enum class Scale { kSmoke, kDefault, kFull };

// Reads SIGNGUARD_SCALE (default kDefault).
Scale scale_from_env();
std::string to_string(Scale s);

// One-line runtime summary for bench banners: the active scale plus the
// thread-pool size (SIGNGUARD_THREADS / hardware_concurrency) every
// matrix kernel and the parallel trainer will use.
std::string runtime_summary(Scale s);

// The paper's four evaluation workloads (§V-A), backed by this repo's
// synthetic stand-in datasets (docs/ARCHITECTURE.md, "Substitutions").
enum class WorkloadKind { kMnistLike, kFashionLike, kCifarLike, kAgNewsLike };

// kGrid: fast dense/bag models for the wide sweeps (Table I, Fig. 4/6);
// kPaper: the structurally faithful CNN / residual-CNN / RNN models used
// by the focused experiments (Fig. 2/5, Table II/III, examples).
enum class ModelProfile { kGrid, kPaper };

// Workload naming without building the (expensive) dataset: the same
// names make_workload() stamps into Workload::name.
std::string workload_name(WorkloadKind kind);
WorkloadKind workload_kind_from_name(const std::string& name);  // throws
const std::vector<WorkloadKind>& all_workloads();

std::string to_string(ModelProfile p);

struct Workload {
  std::string name;
  data::TrainTest data;
  ModelFactory model_factory;
  TrainerConfig config;
};

Workload make_workload(WorkloadKind kind, ModelProfile profile, Scale scale);

// Attack factory. Names (Table I columns): "NoAttack", "Random", "Noise",
// "LabelFlip", "ByzMean", "SignFlip", "LIE", "MinMax", "MinSum",
// "Reverse".
std::unique_ptr<attacks::Attack> make_attack(const std::string& name);

// GAR factory. Names (Table I rows, table1_defenses()): "Mean", "TrMean",
// "Median", "GeoMed", "Multi-Krum", "Bulyan", "DnC", "SignSGD",
// "SignGuard", "SignGuard-Sim", "SignGuard-Dist".
std::unique_ptr<agg::Aggregator> make_aggregator(const std::string& name,
                                                 std::uint64_t seed = 2022);

// Row/column orders used by Table I.
const std::vector<std::string>& table1_attacks();
const std::vector<std::string>& table1_defenses();

}  // namespace signguard::fl
