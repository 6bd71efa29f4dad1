// Fig. 4 reproduction: attack impact (accuracy drop vs the no-attack,
// no-defense baseline — Definition 3) as the Byzantine fraction sweeps
// 10%..40%, for {Median, TrMean, Multi-Krum, DnC, SignGuard-Sim} under
// the five strong attacks, on (a) the Fashion-like and (b) the
// CIFAR-like workloads. The whole grid — baselines included — is one
// fl::run_sweep call, executed concurrently.
//
// Paper reference (Fig. 4): SignGuard-Sim's impact curve stays near zero
// at every fraction; the baselines degrade sharply as the fraction grows.

#include <map>

#include "bench_common.h"
#include "common/table.h"
#include "fl/metrics.h"
#include "fl/sweep.h"

namespace {

using namespace signguard;

const std::vector<double> kFractions = {0.1, 0.2, 0.3, 0.4};

}  // namespace

int main(int argc, char** argv) {
  using namespace signguard;
  std::vector<std::string> datasets = {"Fashion-like", "CIFAR-like"};
  std::vector<std::string> defenses = {"Median", "TrMean", "Multi-Krum", "DnC",
                                       "SignGuard-Sim"};
  std::vector<std::string> attacks = {"ByzMean", "SignFlip", "LIE", "MinMax",
                                      "MinSum"};
  bench::parse_flags(argc, argv,
                     {bench::filter_flag("dataset", datasets),
                      bench::filter_flag("defense", defenses),
                      bench::filter_flag("attack", attacks)});
  const auto scale = fl::scale_from_env();
  bench::banner("Fig. 4: attack impact vs Byzantine fraction", scale);

  std::vector<fl::ScenarioSpec> specs;
  for (const auto& title : datasets) {
    // Baseline: no attack, plain mean, no Byzantine clients.
    fl::ScenarioSpec base;
    base.workload = fl::workload_kind_from_name(title);
    base.byzantine_frac = 0.0;
    specs.push_back(base);
    for (const auto& defense : defenses) {
      for (const auto& attack : attacks) {
        for (const double f : kFractions) {
          fl::ScenarioSpec s;
          s.workload = base.workload;
          s.gar = defense;
          s.attack = attack;
          s.byzantine_frac = f;
          specs.push_back(s);
        }
      }
    }
  }

  fl::SweepOptions opts;
  opts.scale = scale;
  opts.capture_rounds = false;
  opts.progress = [](std::size_t done, std::size_t total,
                     const fl::ScenarioResult& r) {
    std::fprintf(stderr, "[%zu/%zu] %s\n", done, total, r.spec.id().c_str());
  };

  bench::Stopwatch total;
  const auto results = fl::run_sweep(std::move(specs), opts);

  // Index by (workload, gar, attack, fraction).
  std::map<std::string, double> best;
  for (const auto& r : results)
    best[fl::workload_name(r.spec.workload) + "|" + r.spec.gar + "|" +
         r.spec.attack + "|" + TextTable::fmt(r.spec.byzantine_frac, 2)] =
        r.best_accuracy;

  for (const auto& title : datasets) {
    const auto base_it =
        best.find(title + "|Mean|NoAttack|" + TextTable::fmt(0.0, 2));
    const double baseline = base_it == best.end() ? 0.0 : base_it->second;
    std::printf("[%s] baseline accuracy (no attack, Mean): %.2f%%\n",
                title.c_str(), baseline);
    for (const auto& defense : defenses) {
      std::vector<std::string> header = {"Attack \\ Byz%"};
      for (const double f : kFractions)
        header.push_back(TextTable::fmt(100.0 * f, 0) + "%");
      TextTable table(header);
      for (const auto& attack : attacks) {
        std::vector<std::string> row = {attack};
        for (const double f : kFractions) {
          const auto it = best.find(title + "|" + defense + "|" + attack +
                                    "|" + TextTable::fmt(f, 2));
          row.push_back(it == best.end()
                            ? "-"
                            : TextTable::fmt(
                                  fl::attack_impact(baseline, it->second)));
        }
        table.add_row(std::move(row));
      }
      std::printf("\n[%s / %s] attack impact (accuracy drop, %%):\n%s",
                  title.c_str(), defense.c_str(), table.to_string().c_str());
    }
    std::printf("\n");
  }
  bench::report_wall(total);
  return 0;
}
