// attack suite: what feedback-driven attackers do to each defense and
// what they cost, on one pool thread (determinism across thread counts
// is pinned by tests/test_adaptive.cc):
//   - scoreboard: best accuracy per defense under static vs adaptive
//     Min-Max (attacks/adaptive.h) plus the no-attack baselines, the
//     headline being the adaptive gap — how many accuracy points the
//     feedback loop buys against the most breakable baseline GAR — and
//     SignGuard's worst case across the attacked cells,
//   - wirecraft: the same duel on a sign1 wire (attacks/wirecraft.h),
//     where every crafted payload is a codec fixed point,
//   - craft: attacker-side craft cost per round for the static attack
//     and each wrapper layer (adaptive, wirecraft, collude).
// Gated: both sides of the arms race — the adaptive gap (the attacker
// must keep beating a baseline GAR) and SignGuard's worst case (the
// defense must keep winning).
//
// Entries: no params, usec 0; the value is in the entry's unit.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/adaptive.h"
#include "attacks/minmax_minsum.h"
#include "attacks/wirecraft.h"
#include "common/rng.h"
#include "fl/sweep.h"
#include "microbench.h"

namespace signguard::microbench {
namespace {

using bench::Stopwatch;

// Every scenario pins rounds and clients, so the numbers are
// scale-independent; the sweep engine supplies the rest of the bench
// config (MNIST-like grid model, byz=0.2, seed 7).
constexpr std::size_t kRounds = 40;
constexpr std::size_t kClients = 50;

std::vector<fl::ScenarioResult> run_cells(std::vector<fl::ScenarioSpec> specs) {
  fl::SweepOptions opts;
  opts.capture_rounds = false;
  return fl::run_sweep(std::move(specs), opts);
}

// The cell's result; a missing or errored cell aborts the suite.
const fl::ScenarioResult& cell(const std::vector<fl::ScenarioResult>& results,
                               const std::string& attack,
                               const std::string& gar, bool adaptive,
                               bool wirecraft = false) {
  for (const auto& r : results)
    if (r.spec.attack == attack && r.spec.gar == gar &&
        r.spec.adaptive == adaptive && r.spec.wirecraft == wirecraft) {
      if (!r.error.empty())
        throw std::runtime_error(r.spec.id() + " errored: " + r.error);
      return r;
    }
  throw std::runtime_error("missing cell " + attack + "/" + gar);
}

// ---- scoreboard: static vs adaptive Min-Max per defense --------------------

void bench_scoreboard(Run& run) {
  const std::vector<std::string> gars = {"TrMean", "Median", "Multi-Krum",
                                         "SignGuard"};
  fl::SweepGrid grid;
  grid.attacks = {"NoAttack", "MinMax"};
  grid.gars = gars;
  grid.adaptives = {false, true};
  grid.rounds = kRounds;
  grid.n_clients = kClients;
  Stopwatch w;
  const auto results = run_cells(grid.expand());
  run.record("scoreboard", "wall", w.seconds(), "s");

  double adaptive_gap = 0.0;         // max static-vs-adaptive gap, baselines
  double signguard_worstcase = 0.0;  // min over SignGuard attacked cells
  double signguard_noattack = 0.0;
  for (const auto& gar : gars) {
    const double clean = cell(results, "NoAttack", gar, false).best_accuracy;
    const double st = cell(results, "MinMax", gar, false).best_accuracy;
    const double ad = cell(results, "MinMax", gar, true).best_accuracy;
    run.record("scoreboard", gar + "_noattack", clean, "%");
    run.record("scoreboard", gar + "_static", st, "%");
    run.record("scoreboard", gar + "_adaptive", ad, "%");
    if (gar == "SignGuard") {
      signguard_noattack = clean;
      signguard_worstcase = std::min(st, ad);
    } else {
      adaptive_gap = std::max(adaptive_gap, st - ad);
    }
  }
  const auto& mk_st = cell(results, "MinMax", "Multi-Krum", false);
  const auto& mk_ad = cell(results, "MinMax", "Multi-Krum", true);
  run.record("scoreboard", "multikrum_malicious_pass_static",
             mk_st.malicious_pass_rate, "");
  run.record("scoreboard", "multikrum_malicious_pass_adaptive",
             mk_ad.malicious_pass_rate, "");
  run.record("scoreboard", "adaptive_gap", adaptive_gap, "pts");
  run.record("scoreboard", "signguard_worstcase_acc", signguard_worstcase,
             "%");
  run.record("scoreboard", "signguard_attack_delta",
             signguard_noattack - signguard_worstcase, "pts");
}

// ---- wirecraft: the duel on a sign1 wire -----------------------------------

void bench_wirecraft(Run& run) {
  std::vector<fl::ScenarioSpec> specs;
  const auto add = [&](const char* attack, const char* gar, bool adaptive,
                       bool wirecraft) {
    fl::ScenarioSpec s;
    s.attack = attack;
    s.gar = gar;
    s.codec = "sign1";
    s.adaptive = adaptive;
    s.wirecraft = wirecraft;
    s.rounds = kRounds;
    s.n_clients = kClients;
    specs.push_back(s);
  };
  add("NoAttack", "SignGuard", false, false);
  add("NoAttack", "Multi-Krum", false, false);
  for (const char* gar : {"Multi-Krum", "SignGuard"}) {
    add("MinMax", gar, false, false);
    add("MinMax", gar, true, false);
    add("MinMax", gar, true, true);
  }
  Stopwatch w;
  const auto results = run_cells(std::move(specs));
  run.record("wirecraft", "wall", w.seconds(), "s");
  for (const std::string g : {"Multi-Krum", "SignGuard"}) {
    run.record("wirecraft", g + "_noattack",
               cell(results, "NoAttack", g, false).best_accuracy, "%");
    run.record("wirecraft", g + "_static",
               cell(results, "MinMax", g, false).best_accuracy, "%");
    run.record("wirecraft", g + "_adaptive",
               cell(results, "MinMax", g, true).best_accuracy, "%");
    run.record("wirecraft", g + "_adaptive_wirecraft",
               cell(results, "MinMax", g, true, true).best_accuracy, "%");
    // Wire-legality: a crafted uplink the decoder rejects would show up
    // here; the corpus property is separately pinned by tests/test_comm.
    run.record("wirecraft", g + "_crafted_decode_rejects",
               double(cell(results, "MinMax", g, true, true).decode_rejects),
               "uplinks");
  }
}

// ---- attacker-side craft cost ----------------------------------------------

void bench_craft_cost(Run& run) {
  constexpr std::size_t kBenign = 36, kByz = 12, kDim = 8192, kReps = 20;
  Rng gen(41);
  std::vector<std::vector<float>> benign, byz;
  for (std::size_t i = 0; i < kBenign; ++i)
    benign.push_back(gen.normal_vector(kDim, 0.05, 1.0));
  for (std::size_t i = 0; i < kByz; ++i)
    byz.push_back(gen.normal_vector(kDim, 0.05, 1.0));

  comm::CompressionSpec sign1;
  sign1.codec = comm::CodecKind::kSign1;
  const auto wrap_adaptive = [] {
    return std::make_unique<attacks::AdaptiveAttack>(
        std::make_unique<attacks::MinMaxAttack>());
  };
  struct Case {
    const char* name;
    std::unique_ptr<attacks::Attack> attack;
  };
  Case cases[] = {
      {"minmax", std::make_unique<attacks::MinMaxAttack>()},
      {"adaptive_minmax", wrap_adaptive()},
      {"wirecraft_sign1_adaptive",
       std::make_unique<attacks::WirecraftAttack>(wrap_adaptive(), sign1)},
      {"collude_adaptive",
       std::make_unique<attacks::ChaosColludeAttack>(wrap_adaptive(), 99)},
  };
  const std::vector<attacks::GradientView> benign_views(benign.begin(),
                                                        benign.end());
  const std::vector<attacks::GradientView> byz_views(byz.begin(), byz.end());
  for (Case& c : cases) {
    Rng rng(7);
    attacks::AttackContext ctx{.benign_grads = benign_views,
                               .byz_honest_grads = byz_views,
                               .n_total = kBenign + kByz,
                               .n_byzantine = kByz,
                               .rng = &rng};
    volatile float sink = 0.0f;
    Stopwatch w;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      ctx.round = rep;
      c.attack->begin_round(rep, rng);
      const auto rows = c.attack->craft(ctx);
      sink = sink + rows.front().front();
      // Close the loop so the adaptive layer pays its bookkeeping too.
      attacks::RoundFeedback fb;
      fb.round = rep;
      fb.participants = kBenign + kByz;
      fb.byzantine = kByz;
      fb.has_selection = true;
      fb.selected_byzantine = rep % 2 == 0 ? kByz : 0;
      c.attack->observe_round(fb);
    }
    run.record("craft", c.name, w.seconds() * 1e3 / double(kReps),
               "ms/round");
  }
}

}  // namespace

void attack_suite(Run& run) {
  bench_scoreboard(run);
  bench_wirecraft(run);
  bench_craft_cost(run);
}

}  // namespace signguard::microbench
