#include "core/signguard.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "aggregators/internal.h"
#include "common/parallel.h"
#include "common/vecops.h"
#include "obs/trace.h"

namespace signguard::core {

namespace {

// sum_k(weights[k] * decode(uplinks[selected[k]])) / |selected|, without
// materializing a survivor row: each worker takes whole codec chunks,
// about vec::kAccumulatorTile coordinates at a time, decodes every
// survivor's chunks into one cache-resident tile and accumulates it in
// survivor order. Per coordinate that is exactly the arithmetic of
// vec::weighted_mean_of_subset (clipped_mean's accumulation) on the
// decoded matrix, so the result is bitwise equal to the decode path.
std::vector<float> wire_weighted_mean(const comm::WireRound& wire,
                                      std::span<const std::size_t> selected,
                                      std::span<const double> weights) {
  const comm::Codec& codec = *wire.codec;
  const std::size_t d = wire.d;
  const std::size_t chunk = codec.chunk();
  const comm::WireLayout l = comm::wire_layout(codec, d);
  const std::size_t per_tile =
      std::max<std::size_t>(1, vec::kAccumulatorTile / chunk);
  const std::size_t tiles = (l.n_chunks + per_tile - 1) / per_tile;
  const double inv_count = 1.0 / double(selected.size());
  std::vector<float> out(d);
  common::parallel_chunks(
      tiles, [&](std::size_t t_begin, std::size_t t_end, std::size_t) {
        std::vector<float> x(std::min(d, per_tile * chunk));
        std::vector<double> acc(x.size());
        for (std::size_t t = t_begin; t < t_end; ++t) {
          const std::size_t c0 = t * per_tile;
          const std::size_t c1 = std::min(l.n_chunks, c0 + per_tile);
          const std::size_t j0 = c0 * chunk;
          const std::size_t len = std::min(d, c1 * chunk) - j0;
          std::fill_n(acc.begin(), len, 0.0);
          for (std::size_t k = 0; k < selected.size(); ++k) {
            const std::uint8_t* rec = wire.uplinks[selected[k]].data() +
                                      comm::kWireHeaderSize +
                                      c0 * l.full_record;
            for (std::size_t c = c0; c < c1; ++c, rec += l.full_record) {
              const std::size_t clen = c + 1 == l.n_chunks ? l.tail_len : chunk;
              const bool ok = codec.decode_chunk(
                  {rec + 4, codec.chunk_payload_size(clen)},
                  {x.data() + (c - c0) * chunk, clen});
              assert(ok);  // the caller validated every buffer
              (void)ok;
            }
            const double w = weights[k];
            for (std::size_t j = 0; j < len; ++j) acc[j] += w * double(x[j]);
          }
          for (std::size_t j = 0; j < len; ++j)
            out[j0 + j] = static_cast<float>(acc[j] * inv_count);
        }
      });
  return out;
}

}  // namespace

SignGuard::SignGuard(SignGuardConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

std::string SignGuard::name() const {
  switch (cfg_.cluster.similarity) {
    case SimilarityFeature::kCosine:
      return "SignGuard-Sim";
    case SimilarityFeature::kDistance:
      return "SignGuard-Dist";
    case SimilarityFeature::kNone:
      break;
  }
  return "SignGuard";
}

std::vector<float> SignGuard::aggregate(const common::GradientMatrix& grads,
                                        const agg::GarContext&) {
  agg::check_grads(grads);
  const std::size_t n = grads.rows();
  obs::Span span("agg/signguard", std::int64_t(n));
  // Steps 1–2 (and the intersection) are the filter stage; the clipped
  // mean after filter_stage.reset() bills to the caller's aggregate
  // stage. An optional rather than a block: the early return below must
  // stay an early return.
  std::optional<obs::StageScope> filter_stage;
  filter_stage.emplace(obs::Stage::kFilter);

  // Step 1: norm-based thresholding (also computes the clipping bound M).
  last_norm_ = norm_filter(grads, cfg_.norm);

  // Even when the norm filter is ablated away, non-finite gradients are
  // screened: Byzantine clients can send NaN/Inf payloads and no
  // downstream statistic is defined on them.
  std::vector<std::size_t> all;
  all.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (std::isfinite(last_norm_.norms[i])) all.push_back(i);
  if (all.empty()) {
    // No trustworthy gradient this round; emit a zero update.
    selected_.clear();
    last_cluster_ = SignClusterResult{};
    obs::count(obs::Stage::kFilter, obs::Counter::kFilterRejects, n);
    prev_aggregate_.assign(grads.cols(), 0.0f);
    return prev_aggregate_;
  }

  const std::vector<std::size_t>& s1 =
      cfg_.enable_norm_filter ? last_norm_.accepted : all;

  // Step 2: sign-based clustering.
  std::vector<std::size_t> s2 = all;
  if (cfg_.enable_sign_cluster) {
    last_cluster_ = sign_cluster_filter(grads, prev_aggregate_,
                                        last_norm_.median_norm, cfg_.cluster,
                                        rng_);
    s2 = last_cluster_.accepted;
  } else {
    last_cluster_ = SignClusterResult{};
  }

  // Step 3: trusted set = S1 ∩ S2, then norm-clipped mean aggregation.
  selected_ = intersect_indices(s1, s2);
  // The intersection can come up empty (e.g. the largest sign-cluster was
  // entirely norm-rejected). Fall back to the less aggressive single
  // filter rather than emitting nothing — an empty update would stall
  // training without any robustness benefit.
  if (selected_.empty()) selected_ = !s1.empty() ? s1 : all;
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterAdmits,
             selected_.size());
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterRejects,
             n - selected_.size());
  filter_stage.reset();

  // The norm filter already paid for every row norm; reusing them here is
  // bitwise-identical to recomputing (same accumulation chain).
  std::vector<float> agg =
      clipped_mean(grads, selected_, last_norm_.median_norm,
                   cfg_.enable_norm_clipping, last_norm_.norms);
  prev_aggregate_ = agg;
  return agg;
}

std::vector<float> SignGuard::aggregate_wire(const comm::WireRound& wire,
                                             const agg::GarContext&) {
  if (wire.codec == nullptr || wire.uplinks.empty())
    throw std::invalid_argument("aggregate_wire: empty wire round");
  assert(supports_wire_path());
  const std::size_t n = wire.uplinks.size();
  const std::size_t d = wire.d;
  last_decoded_bytes_ = 0;
  obs::Span span("agg/signguard-wire", std::int64_t(n));
  std::optional<obs::StageScope> filter_stage;
  filter_stage.emplace(obs::Stage::kFilter);

  // Step 1: norm-based thresholding on norms derived from wire bytes
  // (bitwise equal to vec::row_norms of the decoded matrix).
  last_norm_ = norm_filter_from_norms(comm::wire_row_norms(wire), cfg_.norm);

  std::vector<std::size_t> all;
  all.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (std::isfinite(last_norm_.norms[i])) all.push_back(i);
  if (all.empty()) {
    // No trustworthy gradient this round; emit a zero update. (Mirrors
    // aggregate(): in particular no coordinate sample is drawn, keeping
    // the Rng streams of the two paths aligned.)
    selected_.clear();
    last_cluster_ = SignClusterResult{};
    obs::count(obs::Stage::kFilter, obs::Counter::kFilterRejects, n);
    prev_aggregate_.assign(d, 0.0f);
    return prev_aggregate_;
  }

  const std::vector<std::size_t>& s1 =
      cfg_.enable_norm_filter ? last_norm_.accepted : all;

  // Step 2: sign-based clustering on popcount/code-derived sign
  // statistics — the same coordinate sample (same Rng draw), bitwise the
  // same proportions, hence the same clusters.
  std::vector<std::size_t> s2 = all;
  if (cfg_.enable_sign_cluster) {
    const auto coords = select_coordinates(d, cfg_.cluster.coord_frac, rng_);
    const comm::CoordMask mask(d, wire.codec->chunk(), coords);
    const auto stats = comm::wire_sign_stats(wire, mask);
    last_cluster_ = sign_cluster_filter_from_stats(stats, {}, cfg_.cluster,
                                                   rng_);
    s2 = last_cluster_.accepted;
  } else {
    last_cluster_ = SignClusterResult{};
  }

  // Step 3: trusted set, then lazy decode — only survivors are ever
  // decoded to f32, streamed chunk by chunk into the clipped mean.
  selected_ = intersect_indices(s1, s2);
  if (selected_.empty()) selected_ = !s1.empty() ? s1 : all;
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterAdmits,
             selected_.size());
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterRejects,
             n - selected_.size());
  filter_stage.reset();

  const double bound = last_norm_.median_norm;
  std::vector<double> weights(selected_.size(), 1.0);
  if (cfg_.enable_norm_clipping)
    for (std::size_t k = 0; k < selected_.size(); ++k)
      weights[k] = clip_weight(last_norm_.norms[selected_[k]], bound);
  std::vector<float> agg = wire_weighted_mean(wire, selected_, weights);
  // Every survivor coordinate was decoded once, as on the decode path.
  last_decoded_bytes_ = std::uint64_t(selected_.size()) * d * 4;
  obs::count(obs::Stage::kDecode, obs::Counter::kRowsDecoded,
             selected_.size());
  obs::count(obs::Stage::kDecode, obs::Counter::kDenseBytes,
             last_decoded_bytes_);
  prev_aggregate_ = agg;
  return agg;
}

void SignGuard::serialize_state(common::ByteWriter& w) const {
  w.str(rng_.state());
  w.floats(prev_aggregate_);
}

void SignGuard::restore_state(common::ByteReader& r) {
  rng_.set_state(r.str());
  prev_aggregate_ = r.floats();
}

void SignGuard::reset() {
  prev_aggregate_.clear();
  selected_.clear();
  last_norm_ = NormFilterResult{};
  last_cluster_ = SignClusterResult{};
  last_decoded_bytes_ = 0;
}

SignGuardConfig plain_config(std::uint64_t seed) {
  SignGuardConfig cfg;
  cfg.seed = seed;
  return cfg;
}

SignGuardConfig sim_config(std::uint64_t seed) {
  SignGuardConfig cfg;
  cfg.cluster.similarity = SimilarityFeature::kCosine;
  cfg.seed = seed;
  return cfg;
}

SignGuardConfig dist_config(std::uint64_t seed) {
  SignGuardConfig cfg;
  cfg.cluster.similarity = SimilarityFeature::kDistance;
  cfg.seed = seed;
  return cfg;
}

}  // namespace signguard::core
