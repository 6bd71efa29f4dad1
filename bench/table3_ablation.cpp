// Table III reproduction: ablation of SignGuard-Sim's defensive
// components — norm thresholding, sign clustering, norm clipping — under
// Random, Reverse-with-scaling and LIE attacks on the CIFAR-like
// workload, IID.
//
// Paper reference (Table III): no single component handles all three
// attacks; clustering plus either norm control does.
//
// The reverse attack scales by the norm-filter upper bound R when
// thresholding/clipping is active (staying inside the admissible band)
// and by 100 otherwise — exactly the paper's §VI-C adversary.

#include "attacks/simple_attacks.h"
#include "bench_common.h"
#include "common/table.h"
#include "core/signguard.h"
#include "fl/trainer.h"

int main(int argc, char** argv) {
  using namespace signguard;
  bench::parse_flags(argc, argv, {});
  const auto scale = fl::scale_from_env();
  bench::banner("Table III: SignGuard component ablation (CIFAR-like)",
                scale);

  fl::Workload w = fl::make_workload(fl::WorkloadKind::kCifarLike,
                                     fl::ModelProfile::kGrid, scale);

  struct Combo {
    bool threshold;
    bool cluster;
    bool clip;
  };
  const std::vector<Combo> combos = {
      {true, false, false}, {false, true, false}, {false, false, true},
      {true, true, false},  {false, true, true},  {true, true, true},
  };

  TextTable table(
      {"Thresholding", "Clustering", "Norm-Clip", "Random", "Reverse",
       "LIE"});

  fl::Trainer trainer(w.data, w.model_factory, w.config);
  bench::Stopwatch total;
  for (const auto& combo : combos) {
    auto make_variant = [&] {
      core::SignGuardConfig cfg = core::sim_config();
      cfg.enable_norm_filter = combo.threshold;
      cfg.enable_sign_cluster = combo.cluster;
      cfg.enable_norm_clipping = combo.clip;
      return std::make_unique<core::SignGuard>(cfg);
    };
    // Scaled reverse: r = R inside the band when any norm control is
    // active, r = 100 otherwise.
    const double r = (combo.threshold || combo.clip) ? 3.0 : 100.0;

    std::vector<std::string> row = {combo.threshold ? "x" : "",
                                    combo.cluster ? "x" : "",
                                    combo.clip ? "x" : ""};
    {
      attacks::RandomAttack attack(0.0, 0.5);
      row.push_back(
          TextTable::fmt(trainer.run(attack, make_variant()).best_accuracy));
    }
    {
      attacks::ReverseScalingAttack attack(r);
      row.push_back(
          TextTable::fmt(trainer.run(attack, make_variant()).best_accuracy));
    }
    {
      auto attack = fl::make_attack("LIE");
      row.push_back(
          TextTable::fmt(trainer.run(*attack, make_variant()).best_accuracy));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::report_wall(total);
  return 0;
}
