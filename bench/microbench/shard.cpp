// shard suite: the sharded aggregation tree at cohort sizes the flat
// path cannot run. Three tiers, all on one pool thread so the numbers
// compare tree structure, not core counts:
//
//   1. flat vs sharded at n=1024, d=100k — the largest cell the flat
//      O(n^2 d) Multi-Krum still affords, so the tree's speedup is
//      measured, not projected;
//   2. end-to-end ShardedAggregator rounds at n=4096, d=100k, S=16;
//   3. a streaming n=65536, d=32768, S=256 robust-aggregation round with
//      20% Byzantine clients: rows are generated shard by shard, each
//      shard filtered by its own Multi-Krum, partials merged at the root
//      — the flat n x d matrix (8.6 GB) and the flat packed pairwise
//      triangle (8.6 GB, 7.0e13 multiply-adds) never exist. The round's
//      output is self-checked against the honest mean (robustness, not
//      just completion) before it is recorded.
//
// An estimate group records what tier 3 would cost without the tree,
// projected from the measured per-shard throughput. An invariance group
// re-runs one sharded aggregate under pool sizes {1, 4} and fails the
// run unless the outputs are bitwise identical — the determinism
// contract from src/aggregators/sharded.h. Gated: the n=4096, S=16
// Multi-Krum round's wall time, which a regression back to flat
// O(n^2 d) cost would push to minutes. --max-n skips every cell of more
// clients.
//
// Entries: params {n, d, shards}; values are rounds/s or clients/s
// unless the unit says otherwise.

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "aggregators/sharded.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "fl/experiment.h"
#include "microbench.h"

namespace signguard::microbench {
namespace {

using bench::Stopwatch;

// The cohort fill with a poisoned fifth: clients with id % 5 == 4 are
// Byzantine and send -10x their honest row — large-norm collinear
// poison the per-shard Multi-Krum must drop. Any shard's rows can be
// regenerated from the global client ids alone.
void fill_rows(common::GradientMatrix& m, std::size_t first_client) {
  const std::size_t d = m.cols();
  common::parallel_for(m.rows(), [&](std::size_t i) {
    const std::size_t client = first_client + i;
    const auto row = m.row(i);
    for (std::size_t j = 0; j < d; ++j) {
      const float v = cohort_value(client, j, d);
      row[j] = client % 5 == 4 ? -10.0f * v : v;
    }
  });
}

Params shape(std::size_t n, std::size_t d, std::size_t shards) {
  return {{"n", n}, {"d", d}, {"shards", shards}};
}

agg::ShardedAggregator make_sharded(const std::string& gar,
                                    std::size_t shards) {
  agg::ShardedConfig cfg;
  cfg.shards = shards;
  return agg::ShardedAggregator(
      [gar](std::uint64_t s) { return fl::make_aggregator(gar, s); }, 0x5d17,
      cfg);
}

// One aggregate on a fresh scenario-stream Rng each run, so repeats are
// identical work.
std::vector<float> aggregate_once(agg::Aggregator& rule,
                                  const common::GradientMatrix& m) {
  Rng rng(7);
  agg::GarContext ctx;
  ctx.assumed_byzantine = m.rows() / 5 + 1;
  ctx.rng = &rng;
  return rule.aggregate(m, ctx);
}

double time_round(Run& run, agg::Aggregator& rule,
                  const common::GradientMatrix& m) {
  return run.timer.time_usec([&] {
    if (aggregate_once(rule, m).empty()) std::abort();
  });
}

// A weighted coordinate mean accumulated one row at a time (the streaming
// round's root merge and its honest-mean reference): sum += w * row in
// double, then one divide by the total weight.
struct WeightedMean {
  std::vector<double> sum;
  double weight = 0.0;

  void add(std::span<const float> row, double w) {
    if (sum.empty()) sum.assign(row.size(), 0.0);
    common::parallel_chunks(row.size(), [&](std::size_t b, std::size_t e,
                                            std::size_t) {
      for (std::size_t j = b; j < e; ++j) sum[j] += w * double(row[j]);
    });
    weight += w;
  }
  std::vector<float> mean() const {
    std::vector<float> out(sum.size());
    for (std::size_t j = 0; j < out.size(); ++j)
      out[j] = static_cast<float>(sum[j] / weight);
    return out;
  }
};

// Tier 3: the streaming round, no flat matrix ever. Records the
// generate/aggregate splits and the flat-path estimate after the root
// output passes the honest-mean check.
void streaming_round(Run& run, std::size_t n, std::size_t d, std::size_t S) {
  const std::size_t per = n / S;
  const std::size_t byz_s = per / 5 + 1;  // id % 5 == 4 pattern, rounded up

  common::GradientMatrix shard_mat(per, d);
  common::GradientMatrix shard_aggs(S, d);
  WeightedMean root;
  WeightedMean honest_ref;  // flat honest mean, for the check
  std::size_t kept = 0;  // survivors over all shards

  double gen_sec = 0.0, agg_sec = 0.0;
  Stopwatch total;
  const std::uint64_t shard_root = Rng(7).engine()();
  for (std::size_t s = 0; s < S; ++s) {
    Stopwatch gw;
    fill_rows(shard_mat, s * per);
    for (std::size_t i = 0; i < per; ++i)
      if ((s * per + i) % 5 != 4)
        honest_ref.add(shard_mat.row(i), 1.0);
    gen_sec += gw.seconds();

    Stopwatch aw;
    auto rule = fl::make_aggregator("Multi-Krum",
                                    common::splitmix64(0x5d17 ^ s));
    Rng shard_rng = Rng::stream(shard_root, s);
    agg::GarContext ctx;
    ctx.assumed_byzantine = byz_s;
    ctx.rng = &shard_rng;
    const auto out = rule->aggregate(shard_mat, ctx);
    const auto sel = rule->last_selected();
    const std::size_t survivors = sel.empty() ? per : sel.size();
    std::copy(out.begin(), out.end(), shard_aggs.row(s).begin());
    root.add(shard_aggs.row(s), double(survivors));
    agg_sec += aw.seconds();
    kept += survivors;
  }
  const auto merged = root.mean();
  const double total_sec = total.seconds();

  // Robustness, not just completion: the survivor-weighted root mean
  // must sit on the honest mean, far below the -10x poison scale.
  const auto honest_mean = honest_ref.mean();
  const double err = vec::dist(merged, honest_mean);
  const double ref = vec::norm(honest_mean);
  std::printf("stream     n=%zu: honest-mean dist %.3f (|honest| %.3f), "
              "%zu/%zu survivors\n",
              n, err, ref, kept, S * per);
  if (!run.check(err < 0.25 * ref,
                 "streaming n=" + std::to_string(n) + " round is not robust"))
    return;
  run.record("stream", "generate", shape(n, d, S), gen_sec * 1e6,
             double(n) / gen_sec, "clients/s");
  run.record("stream", "multikrum_round", shape(n, d, S), agg_sec * 1e6,
             double(n) / agg_sec, "clients/s");
  run.record("stream", "round_total", shape(n, d, S), total_sec * 1e6,
             1.0 / total_sec, "rounds/s");

  // What the flat path would need for the same round: the pairwise block
  // alone is (n^2/2) d multiply-adds and an (n^2/2) float triangle, both
  // projected from the measured per-shard throughput (each shard is the
  // same kernel at n/S rows, so flat = S^2 x the sharded pairwise work).
  const double flat_madds = 0.5 * double(n) * double(n) * double(d);
  const double shard_madds = double(S) * 0.5 * double(per) * double(per) *
                             double(d);
  const double flat_proj_sec = agg_sec * flat_madds / shard_madds;
  run.record("estimate", "flat_pairwise_madds", shape(n, d, 1), 0.0,
             flat_madds, "madds");
  run.record("estimate", "flat_triangle_gb", shape(n, d, 1), 0.0,
             0.5 * double(n) * double(n) * 4.0 / 1e9, "GB");
  run.record("estimate", "flat_matrix_gb", shape(n, d, 1), 0.0,
             double(n) * double(d) * 4.0 / 1e9, "GB");
  run.record("estimate", "flat_projected_sec", shape(n, d, 1),
             flat_proj_sec * 1e6, flat_proj_sec, "s");
}

}  // namespace

void shard_suite(Run& run) {
  // Tier 1: flat vs sharded where flat is still affordable.
  if (const std::size_t n = 1024, d = 100'000, S = 16; run.fits(n, "flatvs")) {
    common::GradientMatrix m(n, d);
    fill_rows(m, 0);
    auto flat = fl::make_aggregator("Multi-Krum");
    const double flat_usec = time_round(run, *flat, m);
    run.record("flatvs", "multikrum_flat", shape(n, d, 1), flat_usec,
               1e6 / flat_usec, "rounds/s");
    auto sharded = make_sharded("Multi-Krum", S);
    const double shard_usec = time_round(run, sharded, m);
    run.record("flatvs", "multikrum_sharded", shape(n, d, S), shard_usec,
               1e6 / shard_usec, "rounds/s");
    run.record("flatvs", "speedup", shape(n, d, S), shard_usec,
               flat_usec / shard_usec, "x");
  }

  // Tier 2: end-to-end sharded rounds at n=4096.
  if (const std::size_t n = 4096, d = 100'000, S = 16; run.fits(n, "sharded")) {
    common::GradientMatrix m(n, d);
    fill_rows(m, 0);
    for (const char* gar : {"Multi-Krum", "SignGuard", "Median"}) {
      auto sharded = make_sharded(gar, S);
      const double usec = time_round(run, sharded, m);
      run.record("sharded", gar, shape(n, d, S), usec, 1e6 / usec,
                 "rounds/s");
    }
  }

  // Tier 3: the cohort size the flat path cannot run.
  if (run.fits(65536, "stream")) streaming_round(run, 65536, 32768, 256);

  // Determinism: one sharded aggregate across pool sizes {1, 4}.
  if (const std::size_t n = 512, d = 4096, S = 8; run.fits(n, "invariance")) {
    common::GradientMatrix m(n, d);
    fill_rows(m, 0);
    std::uint64_t sums[2] = {0, 0};
    const std::size_t pools[2] = {1, 4};
    for (int t = 0; t < 2; ++t) {
      common::set_thread_count(pools[t]);
      auto sharded = make_sharded("Multi-Krum", S);
      const auto out = aggregate_once(sharded, m);
      sums[t] = common::fnv1a64(out.data(), out.size() * sizeof(float),
                                common::kFnvOffsetBasis);
    }
    common::set_thread_count(1);
    run.check(sums[0] == sums[1],
              "sharded aggregate differs across pool sizes 1 and 4");
    run.record("invariance", "threads_1_vs_4", shape(n, d, S), 0.0,
               sums[0] == sums[1] ? 1.0 : 0.0, "");
  }
}

}  // namespace signguard::microbench
