// GradientMatrix layer tests: the flat representation itself, the thread
// pool behind it, the threaded matrix kernels against their scalar
// counterparts, and aggregates for every defense in table1_defenses()
// that are independent of SIGNGUARD_THREADS.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <tuple>

#include "attacks/simple_attacks.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "common/quantiles.h"
#include "common/vecops.h"
#include "data/synth_image.h"
#include "fl/experiment.h"
#include "nn/models.h"
#include "oracles.h"

namespace signguard {
namespace {

std::vector<std::vector<float>> gaussian_rows(std::size_t n, std::size_t d,
                                              double mean, double stddev,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(rng.normal_vector(d, mean, stddev));
  return out;
}

common::GradientMatrix gaussian_grads(std::size_t n, std::size_t d,
                                      double mean, double stddev,
                                      std::uint64_t seed) {
  return common::GradientMatrix::from_vectors(
      gaussian_rows(n, d, mean, stddev, seed));
}

// Restores the automatic pool size when a test body returns.
struct ThreadCountGuard {
  ~ThreadCountGuard() { common::set_thread_count(0); }
};

// ------------------------------------------------------- representation

TEST(GradientMatrix, FromVectorsCopiesRowsInOrder) {
  const auto vs = gaussian_rows(7, 33, 0.1, 1.0, 1);
  const auto m = common::GradientMatrix::from_vectors(vs);
  ASSERT_EQ(m.rows(), 7u);
  ASSERT_EQ(m.cols(), 33u);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      EXPECT_EQ(m.at(i, j), vs[i][j]);
}

TEST(GradientMatrix, RowsAreContiguous) {
  common::GradientMatrix m(3, 4);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) m.at(i, j) = float(i * 4 + j);
  EXPECT_EQ(m.row(1).data(), m.data() + 4);
  EXPECT_EQ(m.row(2)[3], 11.0f);
}

TEST(GradientMatrix, FromViewsMatchesFromVectors) {
  const auto a = gaussian_grads(5, 16, 0.0, 1.0, 2);
  const auto views = a.row_views();
  const auto b = common::GradientMatrix::from_views(views);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.cols(), a.cols());
  EXPECT_TRUE(std::equal(a.data(), a.data() + 5 * 16, b.data()));
}

TEST(GradientMatrix, ResizeReusesBuffer) {
  common::GradientMatrix m(4, 8);
  const float* p = m.data();
  m.resize(2, 8);  // shrink: same allocation
  EXPECT_EQ(m.data(), p);
  EXPECT_EQ(m.rows(), 2u);
}

// --------------------------------------------------------- thread pool

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  common::set_thread_count(4);
  std::vector<std::atomic<int>> hits(1000);
  common::parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelChunks, ChunksPartitionTheRange) {
  ThreadCountGuard guard;
  common::set_thread_count(3);
  std::vector<int> owner(100, -1);
  common::parallel_chunks(
      100, [&](std::size_t begin, std::size_t end, std::size_t worker) {
        for (std::size_t i = begin; i < end; ++i) owner[i] = int(worker);
      });
  for (const int w : owner) EXPECT_GE(w, 0);
}

TEST(ParallelFor, EnvOverrideControlsPoolSize) {
  ThreadCountGuard guard;
  ASSERT_EQ(setenv("SIGNGUARD_THREADS", "3", 1), 0);
  common::set_thread_count(0);  // back to auto -> env
  EXPECT_EQ(common::thread_count(), 3u);
  unsetenv("SIGNGUARD_THREADS");
  EXPECT_GE(common::thread_count(), 1u);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadCountGuard guard;
  common::set_thread_count(4);
  std::atomic<int> total{0};
  common::parallel_for(8, [&](std::size_t) {
    common::parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

// ------------------------------------------------------ matrix kernels

TEST(MatrixKernels, RowNormsMatchScalarNorms) {
  const auto m = gaussian_grads(9, 77, 0.2, 1.5, 3);
  const auto norms = vec::row_norms(m);
  for (std::size_t i = 0; i < m.rows(); ++i)
    EXPECT_DOUBLE_EQ(norms[i], vec::norm(m.row(i)));
}

TEST(MatrixKernels, PairwiseBlocksMatchScalarKernels) {
  const auto m = gaussian_grads(6, 40, 0.0, 1.0, 4);
  // The oracle is the scalar pair loops — exact match required, for the
  // dense blocks and the packed triangle alike.
  const auto d2 = oracle::pairwise_dist2(m);
  const auto gram = oracle::pairwise_dot(m);
  const auto packed = oracle::pairwise_dist2_packed(m);
  ASSERT_EQ(packed.size(), 15u);
  std::size_t k = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(d2[i * 6 + j], vec::dist2(m.row(i), m.row(j)));
      }
      if (j > i) {
        EXPECT_EQ(packed[k++], d2[i * 6 + j]);
      }
      EXPECT_DOUBLE_EQ(gram[i * 6 + j], vec::dot(m.row(i), m.row(j)));
    }
  }
  // The library accumulates in float via one Gram GEMM — tolerance only
  // (test_aggregate_scale stresses the adversarial cases).
  const auto d2g = vec::pairwise_dist2(m);
  const auto gramg = vec::pairwise_dot(m);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(d2g[i * 6 + j], d2[i * 6 + j], 1e-3);
      EXPECT_NEAR(gramg[i * 6 + j], gram[i * 6 + j], 1e-3);
    }
}

TEST(MatrixKernels, MeanAndMomentsMatchRowViewOverloads) {
  const auto m = gaussian_grads(8, 51, 0.3, 0.7, 5);
  const auto vs = m.row_views();
  const auto mean_m = vec::mean_of(m);
  const auto mean_v = vec::mean_of(vs);
  ASSERT_EQ(mean_m.size(), mean_v.size());
  for (std::size_t j = 0; j < mean_m.size(); ++j)
    EXPECT_NEAR(mean_m[j], mean_v[j], 1e-6);
  const auto mm = vec::coordinate_moments(m);
  const auto mv = vec::coordinate_moments(vs);
  for (std::size_t j = 0; j < mm.mean.size(); ++j) {
    EXPECT_NEAR(mm.mean[j], mv.mean[j], 1e-6);
    EXPECT_NEAR(mm.stddev[j], mv.stddev[j], 1e-6);
  }
}

TEST(MatrixKernels, FusedSignStatisticsMatchPerRow) {
  const auto m = gaussian_grads(10, 128, 0.1, 1.0, 6);
  Rng rng(7);
  const auto coords = select_coordinates(128, 0.5, rng);
  const auto fused = sign_statistics(m, coords);
  ASSERT_EQ(fused.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    const SignStats s = sign_statistics(m.row(i), coords);
    EXPECT_DOUBLE_EQ(fused[i].pos, s.pos);
    EXPECT_DOUBLE_EQ(fused[i].zero, s.zero);
    EXPECT_DOUBLE_EQ(fused[i].neg, s.neg);
  }
}

// ---------------------------------------------- crafted populations

// Builds a crafted gradient population: m_byz malicious rows first (as
// the trainer lays them out), benign rows after.
common::GradientMatrix attacked_population(const std::string& attack_name,
                                           std::size_t n, std::size_t m_byz,
                                           std::size_t d,
                                           std::uint64_t seed) {
  const auto benign = gaussian_grads(n - m_byz, d, 0.3, 0.8, seed);
  const auto byz_honest = gaussian_grads(m_byz, d, 0.3, 0.8, seed + 1);
  Rng rng(seed + 2);
  auto attack = fl::make_attack(attack_name);
  attack->begin_round(0, rng);
  const auto benign_views = benign.row_views();
  const auto byz_views = byz_honest.row_views();
  const auto crafted = attack->craft({.benign_grads = benign_views,
                                      .byz_honest_grads = byz_views,
                                      .n_total = n,
                                      .n_byzantine = m_byz,
                                      .rng = &rng});
  std::vector<std::span<const float>> all(crafted.begin(), crafted.end());
  all.insert(all.end(), benign_views.begin(), benign_views.end());
  return common::GradientMatrix::from_views(all);
}

// ------------------------------------ thread-count determinism per GAR

class ThreadDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadDeterminism, OneThreadAndFourThreadsAgreeBitwise) {
  ThreadCountGuard guard;
  const auto defense = GetParam();
  const std::size_t n = 24, m_byz = 5, d = 512;
  const auto matrix = attacked_population("LIE", n, m_byz, d, 21);

  auto run_with = [&](std::size_t threads) {
    common::set_thread_count(threads);
    auto gar = fl::make_aggregator(defense, 2022);
    Rng rng(55);
    agg::GarContext ctx;
    ctx.assumed_byzantine = m_byz;
    ctx.rng = &rng;
    return gar->aggregate(matrix, ctx);
  };

  const auto single = run_with(1);
  const auto pooled = run_with(4);
  EXPECT_EQ(single, pooled) << "defense=" << defense;
}

INSTANTIATE_TEST_SUITE_P(AllDefenses, ThreadDeterminism,
                         ::testing::ValuesIn(fl::table1_defenses()),
                         [](const auto& info) {
                           auto name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ------------------------------------- trainer-level thread determinism

TEST(TrainerThreads, ParallelClientLoopIsThreadCountInvariant) {
  data::SynthImageConfig dcfg;
  dcfg.train_per_class = 30;
  dcfg.test_per_class = 10;
  dcfg.seed = 5;
  const auto tt = data::make_synth_image(dcfg);
  fl::TrainerConfig cfg;
  cfg.n_clients = 12;
  cfg.byzantine_frac = 0.25;
  cfg.rounds = 6;
  cfg.batch_size = 4;
  cfg.eval_every = 3;
  cfg.eval_max_samples = 0;
  cfg.seed = 9;
  auto factory = [](std::uint64_t s) { return nn::make_mlp(256, 8, 10, s); };

  auto run_with = [&](std::size_t threads) {
    ThreadCountGuard guard;
    common::set_thread_count(threads);
    fl::Trainer trainer(tt, factory, cfg);
    attacks::SignFlipAttack attack;
    return trainer.run(attack, fl::make_aggregator("SignGuard"));
  };
  const fl::TrainingResult single = run_with(1);
  const fl::TrainingResult pooled = run_with(3);
  ASSERT_EQ(single.history.size(), pooled.history.size());
  for (std::size_t i = 0; i < single.history.size(); ++i)
    EXPECT_DOUBLE_EQ(single.history[i].test_accuracy,
                     pooled.history[i].test_accuracy);
  EXPECT_DOUBLE_EQ(single.final_accuracy, pooled.final_accuracy);
}

// --------------------------------------------------- quantile guards

TEST(QuantileGuards, EmptyInputsReturnNaN) {
  const std::vector<double> empty;
  EXPECT_TRUE(std::isnan(stats::median(empty)));
  EXPECT_TRUE(std::isnan(stats::quantile(empty, 0.5)));
}

TEST(QuantileGuards, FullRangeQuantilesAreSafe) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 3.0);
  // Out-of-range q values clamp instead of indexing past the sample.
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.5), 3.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, -0.5), 1.0);
}

}  // namespace
}  // namespace signguard
