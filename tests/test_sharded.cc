// Hierarchical sharded aggregation: the determinism contract (bitwise
// thread-count invariance, shards=1 == flat rule), the root-merge
// accumulator, robustness of both root merge rules under a Byzantine
// minority, and one-client shards.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "aggregators/baselines.h"
#include "aggregators/sharded.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/vecops.h"
#include "fl/experiment.h"
#include "fixtures.h"

namespace signguard {
namespace {

using agg::GarContext;
using agg::ShardedAggregator;
using agg::ShardedConfig;
using agg::ShardMerge;

ShardedAggregator::InnerFactory factory_for(const std::string& name) {
  return [name](std::uint64_t seed) { return fl::make_aggregator(name, seed); };
}

TEST(Sharded, ShardCountOneDelegatesBitwise) {
  const auto grads = gaussian_grads(12, 40, 0.1, 1.0, 11);
  for (const char* name : {"Multi-Krum", "Median", "SignGuard"}) {
    auto flat = fl::make_aggregator(name, common::splitmix64(99 ^ 0ULL));
    ShardedAggregator sharded(factory_for(name), 99, {1, ShardMerge::kWeightedMean});
    Rng r1(5), r2(5);
    GarContext c1, c2;
    c1.assumed_byzantine = c2.assumed_byzantine = 2;
    c1.rng = &r1;
    c2.rng = &r2;
    const auto a = flat->aggregate(grads, c1);
    const auto b = sharded.aggregate(grads, c2);
    EXPECT_EQ(a, b) << name;
    EXPECT_EQ(flat->last_selected(), sharded.last_selected()) << name;
    EXPECT_EQ(sharded.last_shards(), 1u);
  }
}

TEST(Sharded, BitwiseThreadCountInvariant) {
  const auto grads = gaussian_grads(48, 300, 0.05, 1.0, 21);
  for (const char* name : {"Multi-Krum", "SignGuard", "Mean"}) {
    for (const auto merge :
         {ShardMerge::kWeightedMean, ShardMerge::kMedianOfMeans}) {
      std::vector<std::vector<float>> outs;
      std::vector<std::vector<std::size_t>> sels;
      for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
        common::set_thread_count(threads);
        ShardedConfig cfg{8, merge};
        ShardedAggregator sharded(factory_for(name), 1234, cfg);
        Rng rng(7);
        GarContext ctx;
        ctx.assumed_byzantine = 9;
        ctx.rng = &rng;
        outs.push_back(sharded.aggregate(grads, ctx));
        sels.push_back(sharded.last_selected());
        EXPECT_EQ(sharded.last_shards(), 8u);
      }
      common::set_thread_count(0);
      EXPECT_EQ(outs[0], outs[1]) << name;  // bitwise
      EXPECT_EQ(sels[0], sels[1]) << name;
    }
  }
}

TEST(Sharded, RootAccumulatorOfUniformWeightsIsThePlainMean) {
  // Mean shards admit every row, so the wmean root weighs each shard mean
  // by its size: the merged output is the plain mean of all rows.
  const auto grads = gaussian_grads(24, 64, 0.1, 0.7, 41);
  ShardedAggregator sharded(factory_for("Mean"), 99,
                            {5, ShardMerge::kWeightedMean});
  Rng rng(3);
  GarContext ctx;
  ctx.rng = &rng;
  const auto root_mean = sharded.aggregate(grads, ctx);
  EXPECT_EQ(sharded.last_shards(), 5u);
  const auto survivors = sharded.last_shard_survivors();
  EXPECT_EQ(std::accumulate(survivors.begin(), survivors.end(),
                            std::size_t{0}),
            grads.rows());

  const auto mean = vec::mean_of(grads);
  ASSERT_EQ(root_mean.size(), mean.size());
  for (std::size_t j = 0; j < mean.size(); ++j)
    EXPECT_NEAR(root_mean[j], mean[j], 1e-5);
}

TEST(Sharded, RobustUnderByzantineMinorityBothMerges) {
  const std::size_t n = 64, d = 32, n_byz = 12;
  Rng rng(51);
  const auto base = rng.normal_vector(d, 0.0, 1.0);
  common::GradientMatrix grads(n, d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j)
      grads.at(i, j) = i < n_byz ? -10.0f * base[j]
                                 : base[j] + float(rng.normal(0.0, 0.1));

  // Honest mean reference from the uncorrupted rows.
  std::vector<std::size_t> honest_ids;
  for (std::size_t i = n_byz; i < n; ++i) honest_ids.push_back(i);
  const auto honest_mean = vec::mean_of_subset(grads, honest_ids);

  for (const auto merge :
       {ShardMerge::kWeightedMean, ShardMerge::kMedianOfMeans}) {
    ShardedAggregator sharded(factory_for("Multi-Krum"), 77, {8, merge});
    Rng ctx_rng(9);
    GarContext ctx;
    ctx.assumed_byzantine = n_byz;
    ctx.rng = &ctx_rng;
    const auto out = sharded.aggregate(grads, ctx);
    EXPECT_LT(vec::dist(out, honest_mean), 0.5 * vec::norm(honest_mean));

    // The trusted-set union should admit honest clients at a much
    // higher rate than Byzantine ones.
    const auto sel = sharded.last_selected();
    std::size_t byz_sel = 0;
    for (const auto i : sel) byz_sel += i < n_byz ? 1 : 0;
    EXPECT_GT(sel.size(), byz_sel * 3);
  }
}

TEST(Sharded, OneClientShardsAreWellDefined) {
  const auto grads = gaussian_grads(9, 16, 0.2, 0.5, 61);
  for (const char* name : {"Multi-Krum", "SignGuard", "DnC", "Median"}) {
    // shards > n clamps to n: every shard holds exactly one client.
    ShardedAggregator sharded(factory_for(name), 5, {64, ShardMerge::kWeightedMean});
    Rng rng(3);
    GarContext ctx;
    ctx.assumed_byzantine = 2;
    ctx.rng = &rng;
    const auto out = sharded.aggregate(grads, ctx);
    ASSERT_EQ(out.size(), grads.cols()) << name;
    for (const float v : out) EXPECT_TRUE(std::isfinite(v)) << name;
    EXPECT_EQ(sharded.last_shards(), grads.rows());
    for (const auto sz : sharded.last_shard_sizes()) EXPECT_EQ(sz, 1u);
  }
}

TEST(Sharded, MedianOfMeansWithSingletonShardsIsCoordinateMedian) {
  // With one client per shard and inner Mean, every shard aggregate is
  // its client's row, so the momed root is exactly the coordinate-wise
  // median of the round (median is permutation-invariant).
  const auto grads = gaussian_grads(11, 23, 0.0, 1.0, 71);
  ShardedAggregator sharded(factory_for("Mean"), 5,
                            {11, ShardMerge::kMedianOfMeans});
  Rng rng(13);
  GarContext ctx;
  ctx.rng = &rng;
  const auto out = sharded.aggregate(grads, ctx);

  agg::MedianAggregator median;
  const auto expect = median.aggregate(grads, GarContext{});
  EXPECT_EQ(out, expect);
}

TEST(Sharded, EmptyRoundAndMissingRngThrow) {
  ShardedAggregator sharded(factory_for("Mean"), 5, {4, ShardMerge::kWeightedMean});
  common::GradientMatrix empty(0, 8);
  Rng rng(1);
  GarContext ctx;
  ctx.rng = &rng;
  EXPECT_THROW(sharded.aggregate(empty, ctx), std::invalid_argument);

  const auto grads = gaussian_grads(8, 8, 0.0, 1.0, 81);
  GarContext no_rng;
  EXPECT_THROW(sharded.aggregate(grads, no_rng), std::invalid_argument);
}

}  // namespace
}  // namespace signguard
