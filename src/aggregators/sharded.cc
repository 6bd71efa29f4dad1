#include "aggregators/sharded.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "aggregators/internal.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "obs/trace.h"

namespace signguard::agg {

const char* to_string(ShardMerge m) {
  switch (m) {
    case ShardMerge::kWeightedMean:
      return "wmean";
    case ShardMerge::kMedianOfMeans:
      return "momed";
  }
  return "?";
}

ShardMerge shard_merge_from_name(const std::string& name) {
  if (name == "wmean") return ShardMerge::kWeightedMean;
  if (name == "momed") return ShardMerge::kMedianOfMeans;
  throw std::invalid_argument("unknown shard merge rule: " + name);
}

ShardedAggregator::ShardedAggregator(InnerFactory factory,
                                     std::uint64_t seed, ShardedConfig cfg)
    : factory_(std::move(factory)), seed_(seed), cfg_(cfg) {
  if (!factory_)
    throw std::invalid_argument("ShardedAggregator: null inner factory");
  shard_rule(0);  // eager so name() works before the first round
}

Aggregator& ShardedAggregator::shard_rule(std::size_t s) {
  while (rules_.size() <= s)
    rules_.push_back(
        factory_(common::splitmix64(seed_ ^ std::uint64_t(rules_.size()))));
  return *rules_[s];
}

void ShardedAggregator::serialize_state(common::ByteWriter& w) const {
  w.u64(rules_.size());
  for (const auto& rule : rules_) common::ByteIo(w).blob(*rule);
}

void ShardedAggregator::restore_state(common::ByteReader& r) {
  const std::uint64_t count = r.u64();
  for (std::uint64_t s = 0; s < count; ++s)
    common::ByteIo(r).blob(shard_rule(s));
}

std::string ShardedAggregator::name() const {
  return "Sharded(" + rules_.front()->name() + " x" +
         std::to_string(cfg_.shards) + ", " + to_string(cfg_.merge) + ")";
}

std::vector<float> ShardedAggregator::aggregate(
    const common::GradientMatrix& grads, const GarContext& ctx) {
  check_grads(grads);
  const std::size_t n = grads.rows();
  const std::size_t d = grads.cols();
  const std::size_t S = std::min(std::max<std::size_t>(cfg_.shards, 1), n);
  obs::Span span("agg/sharded", std::int64_t(n));

  partial_ = common::ShardPartial{};
  if (cfg_.collect_stats) accumulate_stats(partial_, grads, {});

  if (S <= 1) {
    // Flat fallback: delegate with the caller's context untouched — no
    // assignment shuffle, no extra RNG draws — so a shard count of 1 is
    // bitwise the inner rule (the golden-trace guarantee).
    auto& rule = shard_rule(0);
    auto out = rule.aggregate(grads, ctx);
    selected_ = rule.last_selected();
    shard_sizes_.assign(1, n);
    shard_survivors_.assign(1, selected_.empty() ? n : selected_.size());
    partial_.survivors += shard_survivors_[0];
    obs::count(obs::Stage::kMerge, obs::Counter::kShardSurvivors,
               shard_survivors_[0]);
    return out;
  }
  if (ctx.rng == nullptr)
    throw std::invalid_argument(
        "ShardedAggregator: ctx.rng is required for shard assignment");

  // Canonical assignment: one shuffle on the calling thread, balanced
  // contiguous slices (the first n % S shards get the extra row), ids
  // sorted ascending within each shard.
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  ctx.rng->shuffle(perm);
  const std::uint64_t shard_root = ctx.rng->engine()();

  shard_sizes_.assign(S, 0);
  shard_survivors_.assign(S, 0);
  selected_.clear();
  shard_aggs_.resize(S, d);

  const std::size_t base = n / S;
  const std::size_t extra = n % S;
  std::size_t begin = 0;
  std::vector<std::size_t> ids;
  for (std::size_t s = 0; s < S; ++s) {
    const std::size_t size_s = base + (s < extra ? 1 : 0);
    ids.assign(perm.begin() + std::ptrdiff_t(begin),
               perm.begin() + std::ptrdiff_t(begin + size_s));
    begin += size_s;
    std::sort(ids.begin(), ids.end());
    shard_sizes_[s] = size_s;

    shard_mat_.resize(size_s, d);
    common::parallel_for(size_s, [&](std::size_t i) {
      const auto src = grads.row(ids[i]);
      std::copy(src.begin(), src.end(), shard_mat_.row(i).begin());
    });

    // Proportional Byzantine budget with the baselines' usual clamp.
    std::size_t ms = std::size_t(std::llround(
        double(ctx.assumed_byzantine) * double(size_s) / double(n)));
    ms = std::min(ms, (size_s - 1) / 2);

    obs::Span shard_span("agg/shard", std::int64_t(s));
    Rng shard_rng = Rng::stream(shard_root, s);
    GarContext sctx;
    sctx.assumed_byzantine = ms;
    sctx.round = ctx.round;
    sctx.rng = &shard_rng;

    auto& rule = shard_rule(s);
    const auto out = rule.aggregate(shard_mat_, sctx);
    std::copy(out.begin(), out.end(), shard_aggs_.row(s).begin());

    const auto local = rule.last_selected();
    shard_survivors_[s] = local.empty() ? size_s : local.size();
    partial_.survivors += shard_survivors_[s];
    obs::count(obs::Stage::kMerge, obs::Counter::kShardSurvivors,
               shard_survivors_[s]);
    for (const std::size_t i : local) selected_.push_back(ids[i]);
  }
  std::sort(selected_.begin(), selected_.end());

  obs::StageScope merge_stage(obs::Stage::kMerge, "agg/shard-merge",
                              std::int64_t(S));
  if (cfg_.merge == ShardMerge::kMedianOfMeans) {
    GarContext mctx;  // coordinate-wise median ignores the context
    return median_.aggregate(shard_aggs_, mctx);
  }
  // Survivor-weighted mean of the shard aggregates, accumulated in shard
  // order through the mergeable-partial machinery. A shard that admitted
  // nobody still reports size_s survivors above (non-selecting rules)
  // or a positive count, so the total weight is always > 0 here.
  common::ShardPartial root;
  for (std::size_t s = 0; s < S; ++s)
    accumulate_row(root, shard_aggs_.row(s), double(shard_survivors_[s]));
  return finalize_mean(root);
}

}  // namespace signguard::agg
