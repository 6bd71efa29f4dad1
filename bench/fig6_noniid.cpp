// Fig. 6 reproduction: model accuracy under {Sign-flip, LIE, ByzMean}
// at three non-IID skew levels s in {0.3, 0.5, 0.8} for {TrMean,
// Multi-Krum, Bulyan, DnC, SignGuard-Sim}, on the Fashion-like and
// CIFAR-like workloads (sort-and-partition scheme of §VI-B).
//
// Paper reference (Fig. 6): SignGuard-Sim keeps high accuracy at every
// skew; TrMean/Multi-Krum fail under LIE and ByzMean, Bulyan fails under
// LIE on the CIFAR task, DnC only handles sign-flip reliably.

#include "bench_common.h"
#include "common/table.h"
#include "fl/trainer.h"

namespace {

using namespace signguard;

void run_workload(fl::WorkloadKind kind, const char* title, fl::Scale scale,
                  const std::vector<std::string>& attacks) {
  fl::Workload w = fl::make_workload(kind, fl::ModelProfile::kGrid, scale);
  w.config.noniid = true;

  const std::vector<double> skews = {0.3, 0.5, 0.8};
  const std::vector<std::string> defenses = {"TrMean", "Multi-Krum",
                                             "Bulyan", "DnC",
                                             "SignGuard-Sim"};

  for (const auto& attack_name : attacks) {
    std::vector<std::string> header = {"GAR \\ s"};
    for (const double s : skews)
      header.push_back("s=" + TextTable::fmt(s, 1));
    TextTable table(header);
    for (const auto& defense : defenses) {
      std::vector<std::string> row = {defense};
      for (const double s : skews) {
        fl::Workload ws = w;
        ws.config.noniid_s = s;
        fl::Trainer trainer(ws.data, ws.model_factory, ws.config);
        auto attack = fl::make_attack(attack_name);
        const auto res = trainer.run(*attack, fl::make_aggregator(defense));
        row.push_back(TextTable::fmt(res.best_accuracy));
      }
      table.add_row(std::move(row));
    }
    std::printf("[%s / %s] accuracy (%%) vs non-IID skew:\n%s\n", title,
                attack_name.c_str(), table.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace signguard;
  std::vector<std::string> datasets = {"Fashion-like", "CIFAR-like"};
  std::vector<std::string> attacks = {"SignFlip", "LIE", "ByzMean"};
  bench::parse_flags(argc, argv,
                     {bench::filter_flag("dataset", datasets),
                      bench::filter_flag("attack", attacks)});
  const auto scale = fl::scale_from_env();
  bench::banner("Fig. 6: non-IID robustness", scale);

  bench::Stopwatch total;
  for (const auto& name : datasets)
    run_workload(fl::workload_kind_from_name(name),
                 name == "Fashion-like" ? "Fashion-like (Fig. 6a)"
                                        : "CIFAR-like (Fig. 6b)",
                 scale, attacks);
  bench::report_wall(total);
  return 0;
}
