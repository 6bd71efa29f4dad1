// Table II reproduction: average selected rate of honest (H) and
// malicious (M) gradients for the three SignGuard variants under the five
// strong attacks, on the CIFAR-like workload (the paper uses ResNet-18 on
// CIFAR-10, whose near-balanced gradient signs make sign-flip the hard
// case — our ColorCnn/MLP stand-in shares that property).
//
// Paper reference (Table II): H ~ 0.69-0.97, M == 0 for everything except
// sign-flip, where plain SignGuard admits ~0.39 of malicious gradients.

#include "bench_common.h"
#include "common/table.h"
#include "fl/trainer.h"

int main(int argc, char** argv) {
  using namespace signguard;
  std::vector<std::string> attacks = {"ByzMean", "SignFlip", "LIE", "MinMax",
                                      "MinSum"};
  bench::parse_flags(argc, argv, {bench::filter_flag("attack", attacks)});
  const auto scale = fl::scale_from_env();
  bench::banner(
      "Table II: honest/malicious selected rates (CIFAR-like workload)",
      scale);

  fl::Workload w =
      fl::make_workload(fl::WorkloadKind::kCifarLike,
                        fl::ModelProfile::kGrid, scale);

  const std::vector<std::string> variants = {"SignGuard", "SignGuard-Sim",
                                             "SignGuard-Dist"};

  std::vector<std::string> header = {"Attack"};
  for (const auto& v : variants) {
    header.push_back(v + " H");
    header.push_back(v + " M");
  }
  TextTable table(header);

  fl::Trainer trainer(w.data, w.model_factory, w.config);
  bench::Stopwatch total;
  for (const auto& attack_name : attacks) {
    std::vector<std::string> row = {attack_name};
    for (const auto& variant : variants) {
      auto attack = fl::make_attack(attack_name);
      const auto res = trainer.run(*attack, fl::make_aggregator(variant));
      row.push_back(TextTable::fmt(res.selection.honest_rate, 4));
      row.push_back(TextTable::fmt(res.selection.malicious_rate, 4));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::report_wall(total);
  return 0;
}
