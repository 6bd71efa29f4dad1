// Fig. 2 reproduction: sign statistics (positive / zero / negative
// fractions) of the averaged honest gradient vs a virtual LIE-crafted
// gradient (Eq. 1, z = 0.3), tracked over training iterations for the
// CNN (MNIST-like) and the residual ColorCNN (CIFAR-like, the paper's
// ResNet-18 slot).
//
// Paper reference (Fig. 2): honest gradients keep a stable sign profile;
// the LIE gradient's positive fraction collapses while its negative
// fraction inflates — the signal SignGuard's filter exploits. For the
// ResNet-18-like model the honest profile is near 50/50.

#include "attacks/lie.h"
#include "bench_common.h"
#include "common/gradient_stats.h"
#include "common/table.h"
#include "common/vecops.h"
#include "fl/trainer.h"

namespace {

using namespace signguard;

void run_workload(fl::WorkloadKind kind, const char* title,
                  fl::Scale scale) {
  fl::Workload w = fl::make_workload(kind, fl::ModelProfile::kPaper, scale);
  // Fig. 2 needs the iteration trace, not final accuracy: fewer rounds,
  // paper-profile (CNN / residual) models, no attack interference.
  w.config.rounds = scale == fl::Scale::kSmoke
                        ? 20
                        : (scale == fl::Scale::kFull ? 200 : 60);
  w.config.eval_every = w.config.rounds;  // skip intermediate evals
  w.config.byzantine_frac = 0.0;

  TextTable table({"iteration", "honest pos", "honest zero", "honest neg",
                   "LIE pos", "LIE zero", "LIE neg"});

  // Observe gradients by wrapping an attack that records sign statistics
  // of the honest average and of a virtual LIE vector each round.
  class Probe : public attacks::Attack {
   public:
    explicit Probe(TextTable& table, std::size_t stride)
        : table_(table), stride_(stride) {}
    std::vector<std::vector<float>> craft(
        const attacks::AttackContext& ctx) override {
      if (ctx.round % stride_ == 0) {
        const auto avg = vec::mean_of(ctx.benign_grads);
        const SignStats honest = sign_statistics(avg);
        const auto lie =
            attacks::LieAttack::craft_vector(ctx.benign_grads, 0.3);
        const SignStats mal = sign_statistics(lie);
        table_.add_row({std::to_string(ctx.round),
                        TextTable::fmt(honest.pos, 3),
                        TextTable::fmt(honest.zero, 3),
                        TextTable::fmt(honest.neg, 3),
                        TextTable::fmt(mal.pos, 3),
                        TextTable::fmt(mal.zero, 3),
                        TextTable::fmt(mal.neg, 3)});
      }
      std::vector<std::vector<float>> out;
      out.reserve(ctx.byz_honest_grads.size());
      for (const attacks::GradientView g : ctx.byz_honest_grads)
        out.emplace_back(g.begin(), g.end());
      return out;
    }
    std::string name() const override { return "Fig2Probe"; }

   private:
    TextTable& table_;
    std::size_t stride_;
  };

  fl::Trainer trainer(w.data, w.model_factory, w.config);
  Probe probe(table, std::max<std::size_t>(1, w.config.rounds / 10));
  trainer.run(probe, fl::make_aggregator("Mean"));

  std::printf("[%s]\n%s\n", title, table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, {});
  const auto scale = fl::scale_from_env();
  bench::banner("Fig. 2: sign statistics of honest vs LIE gradients", scale);
  bench::Stopwatch total;
  run_workload(fl::WorkloadKind::kMnistLike, "CNN on MNIST-like (Fig. 2a/2b)",
               scale);
  run_workload(fl::WorkloadKind::kCifarLike,
               "Residual CNN on CIFAR-like (Fig. 2c/2d)", scale);
  bench::report_wall(total);
  return 0;
}
