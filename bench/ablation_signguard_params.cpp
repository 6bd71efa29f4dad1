// Extension ablation (not a paper table): sensitivity of SignGuard to its
// own hyperparameters, on the MNIST-like workload under a strong LIE
// attack (z chosen by Eq. 2) and ByzMean:
//   - randomized coordinate fraction (paper fixes 10%)
//   - clustering algorithm: Mean-Shift (adaptive #clusters) vs 2-means
//   - similarity feature: none / cosine / distance
//
// It prints two tables: for each coordinate fraction, the best accuracy
// and the fraction of malicious gradients kept under LIE and ByzMean;
// for each clusterer x similarity pair, the best accuracy under LIE,
// ByzMean and SignFlip.

#include "bench_common.h"
#include "common/table.h"
#include "core/signguard.h"
#include "fl/trainer.h"

namespace {

using namespace signguard;

std::unique_ptr<core::SignGuard> make_variant(double coord_frac,
                                              core::Clusterer clusterer,
                                              core::SimilarityFeature sim) {
  core::SignGuardConfig cfg = core::plain_config();
  cfg.cluster.coord_frac = coord_frac;
  cfg.cluster.clusterer = clusterer;
  cfg.cluster.similarity = sim;
  return std::make_unique<core::SignGuard>(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace signguard;
  bench::parse_flags(argc, argv, {});
  const auto scale = fl::scale_from_env();
  bench::banner("Extension: SignGuard hyperparameter ablation (MNIST-like)",
                scale);

  fl::Workload w = fl::make_workload(fl::WorkloadKind::kMnistLike,
                                     fl::ModelProfile::kGrid, scale);
  fl::Trainer trainer(w.data, w.model_factory, w.config);
  bench::Stopwatch total;

  // --- coordinate fraction sweep -------------------------------------------
  {
    TextTable table({"coord frac", "LIE acc", "LIE mal-kept", "ByzMean acc",
                     "ByzMean mal-kept"});
    for (const double frac : {0.01, 0.05, 0.1, 0.5, 1.0}) {
      std::vector<std::string> row = {TextTable::fmt(frac, 2)};
      for (const char* attack_name : {"LIE", "ByzMean"}) {
        auto attack = fl::make_attack(attack_name);
        const auto res = trainer.run(
            *attack, make_variant(frac, core::Clusterer::kMeanShift,
                                  core::SimilarityFeature::kNone));
        row.push_back(TextTable::fmt(res.best_accuracy));
        row.push_back(TextTable::fmt(res.selection.malicious_rate, 3));
      }
      table.add_row(std::move(row));
    }
    std::printf("[coordinate fraction]\n%s\n", table.to_string().c_str());
  }

  // --- clusterer x similarity sweep -----------------------------------------
  {
    TextTable table({"clusterer", "similarity", "LIE acc", "ByzMean acc",
                     "SignFlip acc"});
    const std::pair<core::Clusterer, const char*> clusterers[] = {
        {core::Clusterer::kMeanShift, "MeanShift"},
        {core::Clusterer::kKMeans2, "KMeans(2)"}};
    const std::pair<core::SimilarityFeature, const char*> sims[] = {
        {core::SimilarityFeature::kNone, "none"},
        {core::SimilarityFeature::kCosine, "cosine"},
        {core::SimilarityFeature::kDistance, "distance"}};
    for (const auto& [clusterer, cname] : clusterers) {
      for (const auto& [sim, sname] : sims) {
        std::vector<std::string> row = {cname, sname};
        for (const char* attack_name : {"LIE", "ByzMean", "SignFlip"}) {
          auto attack = fl::make_attack(attack_name);
          const auto res = trainer.run(
              *attack, make_variant(0.1, clusterer, sim));
          row.push_back(TextTable::fmt(res.best_accuracy));
        }
        table.add_row(std::move(row));
      }
    }
    std::printf("[clusterer x similarity]\n%s\n", table.to_string().c_str());
  }

  bench::report_wall(total);
  return 0;
}
