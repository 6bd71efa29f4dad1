// Internal calibration tool (not a paper experiment): sweeps learning
// rates and round budgets per workload to pick trainer defaults.

#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace signguard;
  bench::parse_flags(argc, argv, {});
  for (const auto kind :
       {fl::WorkloadKind::kMnistLike, fl::WorkloadKind::kFashionLike,
        fl::WorkloadKind::kCifarLike, fl::WorkloadKind::kAgNewsLike}) {
    fl::Workload w =
        fl::make_workload(kind, fl::ModelProfile::kGrid, fl::Scale::kDefault);
    for (const double lr : {0.05, 0.1, 0.2}) {
      w.config.lr = lr;
      w.config.rounds = 200;
      w.config.eval_every = 50;
      fl::Trainer trainer(w.data, w.model_factory, w.config);
      auto attack = fl::make_attack("NoAttack");
      const auto res = trainer.run(*attack, fl::make_aggregator("Mean"));
      std::printf("%s lr=%.2f:", w.name.c_str(), lr);
      for (const auto& r : res.history)
        std::printf("  r%zu=%.1f", r.round + 1, r.test_accuracy);
      std::printf("  best=%.1f\n", res.best_accuracy);
    }
  }
  return 0;
}
