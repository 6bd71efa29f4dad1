// Fig. 5 reproduction: test-accuracy curves under the time-varying attack
// strategy (the adversary re-rolls the attack every epoch, no-attack
// included) for {Multi-Krum, Bulyan, DnC, SignGuard} against the
// no-attack/no-defense baseline, on the Fashion-like and CIFAR-like
// workloads.
//
// Paper reference (Fig. 5): SignGuard tracks the baseline closely; the
// other defenses fluctuate or collapse when the attack switches.

#include "attacks/time_varying.h"
#include "bench_common.h"
#include "common/table.h"
#include "fl/trainer.h"

namespace {

using namespace signguard;

void run_workload(fl::WorkloadKind kind, const char* title,
                  fl::Scale scale) {
  fl::Workload w = fl::make_workload(kind, fl::ModelProfile::kGrid, scale);
  w.config.eval_every = std::max<std::size_t>(5, w.config.rounds / 12);
  const std::size_t rounds_per_epoch =
      std::max<std::size_t>(1, w.config.rounds / 15);

  const std::vector<std::string> defenses = {"Multi-Krum", "Bulyan", "DnC",
                                             "SignGuard"};

  // Baseline curve: no attack, Mean.
  fl::Workload base = w;
  base.config.byzantine_frac = 0.0;
  fl::Trainer base_trainer(base.data, base.model_factory, base.config);
  auto none = fl::make_attack("NoAttack");
  const auto base_res =
      base_trainer.run(*none, fl::make_aggregator("Mean"));

  std::vector<std::string> header = {"round", "Baseline"};
  for (const auto& d : defenses) header.push_back(d);
  TextTable table(header);

  std::vector<std::vector<double>> curves;
  fl::Trainer trainer(w.data, w.model_factory, w.config);
  for (const auto& defense : defenses) {
    attacks::TimeVaryingAttack attack(rounds_per_epoch, /*seed=*/1234);
    const auto res = trainer.run(attack, fl::make_aggregator(defense));
    std::vector<double> curve;
    for (const auto& rec : res.history) curve.push_back(rec.test_accuracy);
    curves.push_back(std::move(curve));
  }

  for (std::size_t i = 0; i < base_res.history.size(); ++i) {
    std::vector<std::string> row = {
        std::to_string(base_res.history[i].round + 1),
        TextTable::fmt(base_res.history[i].test_accuracy)};
    for (const auto& curve : curves)
      row.push_back(i < curve.size() ? TextTable::fmt(curve[i]) : "-");
    table.add_row(std::move(row));
  }
  std::printf("[%s] attack re-rolled every %zu rounds\n%s\n", title,
              rounds_per_epoch, table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace signguard;
  bench::parse_flags(argc, argv, {});
  const auto scale = fl::scale_from_env();
  bench::banner("Fig. 5: defenses under time-varying attacks", scale);
  bench::Stopwatch total;
  run_workload(fl::WorkloadKind::kFashionLike, "Fashion-like (Fig. 5a)",
               scale);
  run_workload(fl::WorkloadKind::kCifarLike, "CIFAR-like (Fig. 5b)", scale);
  bench::report_wall(total);
  return 0;
}
