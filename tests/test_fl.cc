// FL engine tests: client gradient computation, metrics accounting, and
// small end-to-end trainings exercising the full Algorithm 1 loop with
// attacks and defenses wired in.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "aggregators/baselines.h"
#include "attacks/byzmean.h"
#include "attacks/lie.h"
#include "attacks/simple_attacks.h"
#include "attacks/time_varying.h"
#include "core/signguard.h"
#include "data/synth_image.h"
#include "fl/client.h"
#include "fl/experiment.h"
#include "fl/metrics.h"
#include "fl/trainer.h"
#include "nn/models.h"

// Every global operator new of this binary is counted while
// `g_count_news` is set, so a test can assert that a code path allocates
// nothing. Each plain form is replaced, so that a sanitizer runtime's own
// new never meets this free.
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<std::size_t> g_news{0};

void* counted_malloc(std::size_t n) noexcept {
  if (g_count_news.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so GCC does not pair an inlined free with an inlined
// operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace signguard::fl {
namespace {

// The operator news `op` makes.
template <class F>
std::size_t news_during(F&& op) {
  g_news = 0;
  g_count_news = true;
  op();
  g_count_news = false;
  return g_news;
}

data::TrainTest tiny_data(std::uint64_t seed = 5) {
  data::SynthImageConfig cfg;
  cfg.train_per_class = 40;
  cfg.test_per_class = 10;
  cfg.seed = seed;
  return data::make_synth_image(cfg);
}

TrainerConfig tiny_config() {
  TrainerConfig cfg;
  cfg.n_clients = 20;
  cfg.byzantine_frac = 0.2;
  cfg.rounds = 40;
  cfg.batch_size = 8;
  cfg.lr = 0.2;
  cfg.eval_every = 10;
  cfg.eval_max_samples = 0;
  cfg.seed = 3;
  return cfg;
}

ModelFactory tiny_model() {
  return [](std::uint64_t seed) { return nn::make_mlp(256, 16, 10, seed); };
}

// One client gradient as a fresh vector of the model's dimension.
std::vector<float> gradient(Client& client, nn::Model& model,
                            std::size_t batch, double weight_decay,
                            bool flip_labels, double client_momentum = 0.0) {
  std::vector<float> g(model.parameter_count());
  client.compute_gradient_into(g, model, batch, weight_decay, flip_labels,
                               client_momentum);
  return g;
}

TEST(Client, GradientHasModelDimension) {
  const auto tt = tiny_data();
  nn::Model model = tiny_model()(1);
  Client client(&tt.train, {0, 1, 2, 3, 4}, 7);
  const auto g = gradient(client, model, 4, 0.0, false);
  EXPECT_GT(client.average_loss(), 0.0);
  EXPECT_TRUE(std::any_of(g.begin(), g.end(),
                          [](float v) { return v != 0.0f; }));
}

TEST(Client, LabelFlipChangesGradient) {
  const auto tt = tiny_data();
  nn::Model model = tiny_model()(1);
  Client a(&tt.train, {0, 1, 2, 3}, 7);
  Client b(&tt.train, {0, 1, 2, 3}, 7);  // same seed -> same mini-batch
  const auto g_honest = gradient(a, model, 4, 0.0, false);
  const auto g_flipped = gradient(b, model, 4, 0.0, true);
  EXPECT_NE(g_honest, g_flipped);
}

TEST(Client, WeightDecayShiftsGradient) {
  const auto tt = tiny_data();
  nn::Model model = tiny_model()(1);
  Client a(&tt.train, {0, 1}, 7);
  Client b(&tt.train, {0, 1}, 7);
  const auto g0 = gradient(a, model, 2, 0.0, false);
  const auto g1 = gradient(b, model, 2, 0.1, false);
  const auto params = model.parameters();
  for (std::size_t j = 0; j < 20; ++j)
    EXPECT_NEAR(g1[j] - g0[j], 0.1f * params[j], 1e-4);
}

// After warm-up, a client step and a parameter load allocate nothing,
// for every model the workloads build (docs/ARCHITECTURE.md "Workspace
// ownership").
TEST(Client, SteadyStateStepAllocatesNothing) {
  const std::pair<WorkloadKind, ModelProfile> kModels[] = {
      {WorkloadKind::kMnistLike, ModelProfile::kGrid},
      {WorkloadKind::kMnistLike, ModelProfile::kPaper},
      {WorkloadKind::kCifarLike, ModelProfile::kGrid},
      {WorkloadKind::kCifarLike, ModelProfile::kPaper},
      {WorkloadKind::kAgNewsLike, ModelProfile::kGrid},
      {WorkloadKind::kAgNewsLike, ModelProfile::kPaper}};
  for (const auto& [kind, profile] : kModels) {
    const Workload w = make_workload(kind, profile, Scale::kSmoke);
    nn::Model model = w.model_factory(3);
    std::vector<std::size_t> shard(w.data.train.size());
    for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
    Client client(&w.data.train, std::move(shard), 7);
    std::vector<float> grad(model.parameter_count());
    const std::vector<float> params = model.parameters();
    const auto step = [&] {
      client.compute_gradient_into(grad, model, w.config.batch_size,
                                   w.config.weight_decay, false);
    };
    step();  // warm-up: the arena and the client's scratch reach size
    EXPECT_EQ(news_during([&] {
                for (int i = 0; i < 20; ++i) step();
              }),
              0u)
        << w.name << " " << to_string(profile);
    EXPECT_EQ(news_during([&] { model.set_parameters(params); }), 0u)
        << w.name << " " << to_string(profile);
  }
}

TEST(Metrics, SelectionStatsRunningAverage) {
  SelectionStats s;
  // Round 1: byz = {0,1}, selected = {2,3,4,5} -> honest 4/4, byz 0/2.
  s.accumulate(std::vector<std::size_t>{2, 3, 4, 5}, 2, 6);
  EXPECT_DOUBLE_EQ(s.honest_rate, 1.0);
  EXPECT_DOUBLE_EQ(s.malicious_rate, 0.0);
  // Round 2: selected = {0, 2} -> honest 1/4, byz 1/2.
  s.accumulate(std::vector<std::size_t>{0, 2}, 2, 6);
  EXPECT_DOUBLE_EQ(s.honest_rate, (1.0 + 0.25) / 2.0);
  EXPECT_DOUBLE_EQ(s.malicious_rate, 0.25);
  EXPECT_EQ(s.rounds, 2u);
}

TEST(Metrics, AttackImpactIsAccuracyDrop) {
  EXPECT_DOUBLE_EQ(attack_impact(90.0, 35.0), 55.0);
}

TEST(Metrics, EvaluateAccuracyPerfectModelIsHundred) {
  // A model whose logits exactly encode the label is 100% accurate; test
  // through the real evaluation path with a stub dataset of two classes.
  data::Dataset test;
  test.num_classes = 2;
  test.sample_shape = {2};
  test.x = {{5.0f, 0.0f}, {0.0f, 5.0f}, {4.0f, 1.0f}};
  test.y = {0, 1, 0};
  Rng rng(1);
  nn::Model identity;
  identity.add(std::make_unique<nn::Linear>(2, 2, rng));
  // Set W = I, b = 0.
  const std::vector<float> eye = {1.0f, 0.0f, 0.0f, 1.0f, 0.0f, 0.0f};
  identity.set_parameters(eye);
  EXPECT_DOUBLE_EQ(evaluate_accuracy(identity, test), 100.0);
}

TEST(Trainer, BaselineConverges) {
  const auto tt = tiny_data();
  Trainer trainer(tt, tiny_model(), tiny_config());
  attacks::NoAttack none;
  const auto res = trainer.run(none, std::make_unique<agg::MeanAggregator>());
  EXPECT_GT(res.best_accuracy, 60.0);
  EXPECT_EQ(res.history.size(), 4u);  // 40 rounds / eval_every 10
}

TEST(Trainer, HistoryRecordsFinalRound) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.rounds = 25;  // not divisible by eval_every
  Trainer trainer(tt, tiny_model(), cfg);
  attacks::NoAttack none;
  const auto res = trainer.run(none, std::make_unique<agg::MeanAggregator>());
  EXPECT_EQ(res.history.back().round, 24u);
  EXPECT_DOUBLE_EQ(res.final_accuracy, res.history.back().test_accuracy);
}

TEST(Trainer, DeterministicGivenSeed) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.rounds = 10;
  Trainer t1(tt, tiny_model(), cfg);
  Trainer t2(tt, tiny_model(), cfg);
  attacks::NoAttack a1, a2;
  const auto r1 = t1.run(a1, std::make_unique<agg::MeanAggregator>());
  const auto r2 = t2.run(a2, std::make_unique<agg::MeanAggregator>());
  EXPECT_DOUBLE_EQ(r1.final_accuracy, r2.final_accuracy);
}

TEST(Trainer, SignGuardBeatsMeanUnderByzMean) {
  const auto tt = tiny_data();
  Trainer trainer(tt, tiny_model(), tiny_config());

  // ByzMean with a random-noise inner vector (one of the paper's §III
  // suggestions): the mean of ALL gradients becomes pure noise, so
  // undefended training collapses while SignGuard filters both Byzantine
  // groups (noise by sign statistics, the compensating group by norm).
  auto make_byzmean = [] {
    return attacks::ByzMeanAttack(
        std::make_unique<attacks::RandomAttack>(0.0, 0.5));
  };

  auto byzmean_a = make_byzmean();
  const auto broken =
      trainer.run(byzmean_a, std::make_unique<agg::MeanAggregator>());

  auto byzmean_b = make_byzmean();
  const auto defended = trainer.run(
      byzmean_b, std::make_unique<core::SignGuard>(core::plain_config()));

  EXPECT_GT(defended.best_accuracy, broken.best_accuracy + 15.0);
}

TEST(Trainer, SignGuardSelectionStatsUnderAttacks) {
  const auto tt = tiny_data();
  Trainer trainer(tt, tiny_model(), tiny_config());

  // Strong LIE: sign statistics separate cleanly; near-zero admission.
  attacks::LieAttack lie(1.5);
  const auto res_lie = trainer.run(
      lie, std::make_unique<core::SignGuard>(core::plain_config()));
  EXPECT_GT(res_lie.selection.rounds, 0u);
  EXPECT_GT(res_lie.selection.honest_rate, 0.6);
  EXPECT_LT(res_lie.selection.malicious_rate, 0.1);

  // Sign-flip: the paper's known weak spot for plain sign statistics
  // (Table II reports a 0.39 malicious selection rate on ResNet-18, §VI-A
  // explains why). Require better-than-chance filtering, not perfection.
  attacks::SignFlipAttack flip;
  const auto res_flip = trainer.run(
      flip, std::make_unique<core::SignGuard>(core::plain_config()));
  EXPECT_GT(res_flip.selection.honest_rate, 0.6);
  EXPECT_LT(res_flip.selection.malicious_rate, 0.75);
}

TEST(Trainer, NonIidPartitionPathRuns) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.noniid = true;
  cfg.noniid_s = 0.3;
  cfg.rounds = 20;
  Trainer trainer(tt, tiny_model(), cfg);
  attacks::NoAttack none;
  const auto res = trainer.run(none, std::make_unique<agg::MeanAggregator>());
  EXPECT_GT(res.best_accuracy, 30.0);  // still learns, just slower
}

TEST(Trainer, LabelFlipAttackDegradesLessThanLargeNormRandom) {
  const auto tt = tiny_data();
  Trainer trainer(tt, tiny_model(), tiny_config());
  attacks::LabelFlipAttack label_flip;
  const auto lf = trainer.run(label_flip,
                              std::make_unique<agg::MeanAggregator>());
  // Label flipping is a mild data poisoning: 20% of clients training on
  // flipped labels barely dents an undefended mean. A large-norm random
  // gradient attack under the same undefended mean wrecks training — the
  // gap is tens of accuracy points for any seed (a ByzMean/LIE hybrid is
  // deliberately subtle, so its margin over label flipping is seed noise
  // at this scale and is not asserted here).
  attacks::RandomAttack random(0.0, 5.0);
  const auto rn =
      trainer.run(random, std::make_unique<agg::MeanAggregator>());
  EXPECT_GT(lf.best_accuracy, rn.best_accuracy + 10.0);
}

TEST(Trainer, ObserverSeesEveryRoundAndAttackNames) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.rounds = 12;
  cfg.eval_every = 4;
  Trainer trainer(tt, tiny_model(), cfg);
  attacks::TimeVaryingAttack tv(/*rounds_per_epoch=*/4, /*seed=*/9);
  std::size_t calls = 0, evals = 0;
  const auto res = trainer.run(
      tv, std::make_unique<agg::MeanAggregator>(),
      [&](const RoundObservation& obs) {
        EXPECT_EQ(obs.round, calls);
        ++calls;
        if (obs.test_accuracy.has_value()) ++evals;
        EXPECT_EQ(obs.attack_name, "TimeVarying");
      });
  EXPECT_EQ(calls, 12u);
  EXPECT_EQ(evals, res.history.size());
}

TEST(Trainer, ZeroByzantineFraction) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.byzantine_frac = 0.0;
  cfg.rounds = 10;
  Trainer trainer(tt, tiny_model(), cfg);
  EXPECT_EQ(trainer.n_byzantine(), 0u);
  attacks::SignFlipAttack flip;  // no clients to corrupt -> harmless
  const auto res =
      trainer.run(flip, std::make_unique<agg::MeanAggregator>());
  EXPECT_GT(res.best_accuracy, 15.0);
}

// Degenerate configurations must fail loudly at construction (or clamp,
// for the sampled-participant count) instead of crashing mid-round.
TEST(Trainer, DegenerateConfigsThrowAtConstruction) {
  const auto tt = tiny_data();
  const auto expect_throws = [&](TrainerConfig cfg) {
    EXPECT_THROW(Trainer(tt, tiny_model(), cfg), std::invalid_argument);
  };
  auto cfg = tiny_config();
  cfg.n_clients = 0;
  expect_throws(cfg);

  cfg = tiny_config();
  cfg.byzantine_frac = 0.5;  // Byzantine majority: m can reach n
  expect_throws(cfg);
  cfg.byzantine_frac = 1.0;  // would round to m == n
  expect_throws(cfg);
  cfg.byzantine_frac = -0.1;
  expect_throws(cfg);

  cfg = tiny_config();
  cfg.participation = 0.0;  // would sample zero clients
  expect_throws(cfg);
  cfg.participation = 1.5;
  expect_throws(cfg);

  cfg = tiny_config();
  cfg.dropout_prob = 1.5;
  expect_throws(cfg);
  cfg = tiny_config();
  cfg.straggler_prob = -0.5;
  expect_throws(cfg);

  cfg = tiny_config();
  cfg.rounds = 0;
  expect_throws(cfg);

  cfg = tiny_config();
  cfg.eval_every = 0;  // would divide by zero at the first eval check
  expect_throws(cfg);
}

TEST(Trainer, ByzantineFracRoundingToZeroStillRuns) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.n_clients = 10;
  cfg.byzantine_frac = 0.04;  // rounds to m = 0
  cfg.rounds = 6;
  Trainer trainer(tt, tiny_model(), cfg);
  EXPECT_EQ(trainer.n_byzantine(), 0u);
  attacks::SignFlipAttack flip;  // nothing to corrupt; must be a no-op
  const auto res = trainer.run(flip, std::make_unique<agg::MeanAggregator>());
  EXPECT_GT(res.best_accuracy, 10.0);
}

TEST(Trainer, TinyParticipationClampsToOneClient) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.participation = 0.01;  // 0.01 * 20 rounds to 0 -> clamped to 1
  cfg.rounds = 12;
  Trainer trainer(tt, tiny_model(), cfg);
  attacks::SignFlipAttack flip;
  std::size_t observed = 0, skipped = 0;
  const auto res = trainer.run(
      flip, std::make_unique<agg::MeanAggregator>(),
      [&](const RoundObservation& obs) {
        ++observed;
        if (obs.skipped) {
          ++skipped;  // the lone sampled client was Byzantine
          EXPECT_EQ(obs.participants, 0u);
        } else {
          EXPECT_EQ(obs.participants, 1u);
          EXPECT_EQ(obs.byzantine, 0u);
        }
      });
  EXPECT_EQ(observed, 12u);
  EXPECT_LT(skipped, 12u);  // with 20% Byzantine some rounds must survive
  (void)res;
}

TEST(Trainer, FailureInjectionAccounting) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.dropout_prob = 0.3;
  cfg.straggler_prob = 0.3;
  cfg.rounds = 15;
  Trainer trainer(tt, tiny_model(), cfg);
  attacks::NoAttack none;
  std::size_t dropped = 0, stragglers = 0;
  trainer.run(none, std::make_unique<agg::MeanAggregator>(),
              [&](const RoundObservation& obs) {
                // Every sampled client is either aggregated, dropped, or
                // arrived too late (on a skipped round the active
                // Byzantine clients are none of the three).
                if (!obs.skipped)
                  EXPECT_EQ(obs.participants + obs.dropped + obs.stragglers,
                            cfg.n_clients);
                dropped += obs.dropped;
                stragglers += obs.stragglers;
              });
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(stragglers, 0u);
}

TEST(Trainer, FullDropoutSkipsEveryRoundWithoutCrashing) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.dropout_prob = 1.0;
  cfg.rounds = 5;
  Trainer trainer(tt, tiny_model(), cfg);
  attacks::NoAttack none;
  std::size_t skipped = 0;
  const auto res = trainer.run(none, std::make_unique<agg::MeanAggregator>(),
                               [&](const RoundObservation& obs) {
                                 skipped += obs.skipped ? 1 : 0;
                               });
  EXPECT_EQ(skipped, 5u);
  EXPECT_TRUE(res.history.empty());
}

TEST(Trainer, ObserverExposesAggregateTrace) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.rounds = 4;
  Trainer trainer(tt, tiny_model(), cfg);
  const std::size_t dim = tiny_model()(1).parameter_count();
  attacks::NoAttack none;
  trainer.run(none, std::make_unique<agg::MeanAggregator>(),
              [&](const RoundObservation& obs) {
                ASSERT_EQ(obs.aggregate.size(), dim);
                EXPECT_EQ(obs.participants, cfg.n_clients);
                EXPECT_EQ(obs.byzantine, trainer.n_byzantine());
              });
}

TEST(ExperimentFactories, AllNamesConstruct) {
  for (const auto& name : table1_attacks())
    EXPECT_NE(make_attack(name), nullptr) << name;
  for (const auto& name : table1_defenses())
    EXPECT_NE(make_aggregator(name), nullptr) << name;
  EXPECT_THROW(make_attack("bogus"), std::invalid_argument);
  EXPECT_THROW(make_aggregator("bogus"), std::invalid_argument);
}

TEST(ExperimentFactories, WorkloadsConstructAndTrain) {
  // Smoke-train every workload at tiny scale through the factory path.
  for (const auto kind :
       {WorkloadKind::kMnistLike, WorkloadKind::kAgNewsLike}) {
    Workload w = make_workload(kind, ModelProfile::kGrid, Scale::kSmoke);
    w.config.rounds = 6;
    w.config.n_clients = 10;
    w.config.eval_every = 6;
    w.config.eval_max_samples = 200;
    Trainer trainer(w.data, w.model_factory, w.config);
    auto attack = make_attack("NoAttack");
    const auto res = trainer.run(*attack, make_aggregator("Mean"));
    EXPECT_GT(res.best_accuracy, 5.0) << w.name;
  }
}

TEST(Client, ClientMomentumAccumulatesAcrossRounds) {
  const auto tt = tiny_data();
  nn::Model model = tiny_model()(1);
  Client with_m(&tt.train, {0, 1, 2, 3}, 7);
  Client without(&tt.train, {0, 1, 2, 3}, 7);  // same batches
  const auto g1 = gradient(without, model, 4, 0.0, false, 0.0);
  const auto v1 = gradient(with_m, model, 4, 0.0, false, 0.9);
  // First round: buffer starts at zero, so v1 == g1.
  for (std::size_t j = 0; j < 10; ++j) EXPECT_NEAR(v1[j], g1[j], 1e-6);
  const auto g2 = gradient(without, model, 4, 0.0, false, 0.0);
  const auto v2 = gradient(with_m, model, 4, 0.0, false, 0.9);
  // Second round: v2 == 0.9 * g1 + g2.
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_NEAR(v2[j], 0.9f * g1[j] + g2[j], 1e-5);
}

// The client's gradient epilogue — one fused gradients_into pass, then
// the momentum update — is bitwise the old copy, decay and momentum
// passes, recomputed here from the model's gradient and parameter blobs.
TEST(Client, GradientEpilogueMatchesCopyDecayMomentumBitwise) {
  const auto tt = tiny_data();
  for (const double momentum : {0.0, 0.9}) {
    for (const double wd : {0.0, 5e-4}) {
      nn::Model model = tiny_model()(1);
      Client client(&tt.train, {0, 1, 2, 3, 4, 5}, 7);
      std::vector<float> out(model.parameter_count());
      std::vector<float> buffer(out.size(), 0.0f);
      for (int round = 0; round < 2; ++round) {
        client.compute_gradient_into(out, model, 4, wd, false, momentum);
        std::vector<float> expected = model.gradients();
        const std::vector<float> params = model.parameters();
        for (std::size_t i = 0; i < expected.size(); ++i) {
          if (wd != 0.0)
            expected[i] = static_cast<float>(double(expected[i]) +
                                             wd * double(params[i]));
          if (momentum > 0.0) {
            buffer[i] = static_cast<float>(momentum * buffer[i] +
                                           double(expected[i]));
            expected[i] = buffer[i];
          }
        }
        ASSERT_EQ(0, std::memcmp(out.data(), expected.data(),
                                 out.size() * sizeof(float)))
            << "momentum=" << momentum << " wd=" << wd << " round=" << round;
      }
    }
  }
}

TEST(Trainer, ClientMomentumModeTrains) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.momentum = 0.0;          // server momentum off
  cfg.client_momentum = 0.9;   // history-aided clients
  cfg.rounds = 40;
  cfg.lr = 0.05;               // buffered gradients are ~10x larger
  Trainer trainer(tt, tiny_model(), cfg);
  attacks::NoAttack none;
  const auto res = trainer.run(none, std::make_unique<agg::MeanAggregator>());
  EXPECT_GT(res.best_accuracy, 55.0);
}

TEST(Trainer, SignSgdAggregatorTrainsAndResistsInflation) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.momentum = 0.0;
  cfg.lr = 0.01;  // signSGD steps are +/- lr per coordinate
  cfg.rounds = 60;
  Trainer trainer(tt, tiny_model(), cfg);
  // Reverse-with-scaling cannot flip the majority vote with 20% clients.
  attacks::ReverseScalingAttack attack(1e6);
  const auto res =
      trainer.run(attack, fl::make_aggregator("SignSGD"));
  EXPECT_GT(res.best_accuracy, 40.0);
}

TEST(Trainer, PartialParticipationConverges) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.participation = 0.5;
  cfg.rounds = 60;
  Trainer trainer(tt, tiny_model(), cfg);
  attacks::NoAttack none;
  const auto res = trainer.run(none, std::make_unique<agg::MeanAggregator>());
  // Half the clients per round: still learns, just on fewer samples/round.
  EXPECT_GT(res.best_accuracy, 50.0);
}

TEST(Trainer, PartialParticipationDefendedUnderAttack) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.participation = 0.6;
  cfg.rounds = 50;
  Trainer trainer(tt, tiny_model(), cfg);
  // The per-round Byzantine count now varies; SignGuard needs no count
  // information, so the defense carries over unchanged.
  auto byzmean = attacks::ByzMeanAttack(
      std::make_unique<attacks::RandomAttack>(0.0, 0.5));
  const auto defended = trainer.run(
      byzmean, std::make_unique<core::SignGuard>(core::plain_config()));
  auto byzmean2 = attacks::ByzMeanAttack(
      std::make_unique<attacks::RandomAttack>(0.0, 0.5));
  const auto broken =
      trainer.run(byzmean2, std::make_unique<agg::MeanAggregator>());
  EXPECT_GT(defended.best_accuracy, broken.best_accuracy + 10.0);
}

TEST(Trainer, PartialParticipationDeterministic) {
  const auto tt = tiny_data();
  auto cfg = tiny_config();
  cfg.participation = 0.4;
  cfg.rounds = 15;
  Trainer t1(tt, tiny_model(), cfg);
  Trainer t2(tt, tiny_model(), cfg);
  attacks::NoAttack a1, a2;
  const auto r1 = t1.run(a1, std::make_unique<agg::MeanAggregator>());
  const auto r2 = t2.run(a2, std::make_unique<agg::MeanAggregator>());
  EXPECT_DOUBLE_EQ(r1.final_accuracy, r2.final_accuracy);
}

TEST(ScaleFromEnv, ParsesKnownValues) {
  EXPECT_EQ(to_string(Scale::kSmoke), "smoke");
  EXPECT_EQ(to_string(Scale::kDefault), "default");
  EXPECT_EQ(to_string(Scale::kFull), "full");
}

}  // namespace
}  // namespace signguard::fl
