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

// The decode path: every statistic from the dense round matrix. The
// similarity reference (SignGuard-Sim/-Dist) is the previous aggregate.
struct DenseSource {
  const common::GradientMatrix& grads;
  std::span<const float> reference;

  std::vector<double> row_norms() const { return vec::row_norms(grads); }
  SignClusterResult sign_cluster(double median_norm,
                                 const SignClusterConfig& cfg,
                                 Rng& rng) const {
    return sign_cluster_filter(grads, reference, median_norm, cfg, rng);
  }
  std::vector<float> weighted_mean(std::span<const std::size_t> selected,
                                   std::span<const double> weights) const {
    return vec::weighted_mean_of_subset(grads, selected, weights);
  }
};

// The compressed-domain path: norms and sign statistics straight from
// the validated wire bytes (bitwise equal to vec::row_norms and
// sign_statistics of the decoded matrix), and only the trusted set ever
// decoded. Plain variant only (supports_wire_path): there is no
// similarity feature to compute.
struct WireSource {
  const comm::WireRound& wire;
  std::uint64_t& decoded_bytes;  // SignGuard::last_decoded_bytes_

  std::vector<double> row_norms() const { return comm::wire_row_norms(wire); }
  // The same coordinate sample (same Rng draw) as sign_cluster_filter,
  // hence the same proportions and the same clusters.
  SignClusterResult sign_cluster(double, const SignClusterConfig& cfg,
                                 Rng& rng) const {
    const auto coords = select_coordinates(wire.d, cfg.coord_frac, rng);
    const comm::CoordMask mask(wire.d, wire.codec->chunk(), coords);
    return sign_cluster_filter_from_stats(comm::wire_sign_stats(wire, mask),
                                          {}, cfg, rng);
  }

  // sum_k(weights[k] * decode(uplinks[selected[k]])) / |selected|,
  // without materializing a survivor row: each worker takes whole codec
  // chunks, about vec::kAccumulatorTile coordinates at a time, decodes
  // every survivor's chunks into one cache-resident tile and accumulates
  // it in survivor order. Per coordinate that is exactly the arithmetic
  // of vec::weighted_mean_of_subset on the decoded matrix, so the result
  // is bitwise equal to the decode path. Every survivor coordinate is
  // billed as decoded once, as on the decode path.
  std::vector<float> weighted_mean(std::span<const std::size_t> selected,
                                   std::span<const double> weights) const {
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
              const std::vector<std::uint8_t>& buf = wire.uplinks[selected[k]];
              for (std::size_t c = c0; c < c1; ++c) {
                const bool ok = codec.decode_chunk(
                    l.payload(buf, c), l.len(c), x.data() + (c - c0) * chunk);
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
    decoded_bytes = std::uint64_t(selected.size()) * d * 4;
    obs::count(obs::Stage::kDecode, obs::Counter::kRowsDecoded,
               selected.size());
    obs::count(obs::Stage::kDecode, obs::Counter::kDenseBytes, decoded_bytes);
    return out;
  }
};

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
  obs::Span span("agg/signguard", std::int64_t(grads.rows()));
  return filter_and_aggregate(DenseSource{grads, prev_aggregate_},
                              grads.cols());
}

std::vector<float> SignGuard::aggregate_wire(const comm::WireRound& wire,
                                             const agg::GarContext&) {
  if (wire.codec == nullptr || wire.uplinks.empty())
    throw std::invalid_argument("aggregate_wire: empty wire round");
  assert(supports_wire_path());
  last_decoded_bytes_ = 0;
  obs::Span span("agg/signguard-wire", std::int64_t(wire.uplinks.size()));
  return filter_and_aggregate(WireSource{wire, last_decoded_bytes_}, wire.d);
}

template <class Source>
std::vector<float> SignGuard::filter_and_aggregate(const Source& source,
                                                   std::size_t d) {
  // Steps 1–2 (and the intersection) are the filter stage; the clipped
  // mean after filter_stage.reset() bills to the caller's aggregate
  // stage. An optional rather than a block: the early return below must
  // stay an early return.
  std::optional<obs::StageScope> filter_stage;
  filter_stage.emplace(obs::Stage::kFilter);

  // Step 1: norm-based thresholding (also computes the clipping bound M).
  last_norm_ = norm_filter_from_norms(source.row_norms(), cfg_.norm);
  const std::size_t n = last_norm_.norms.size();

  // Even when the norm filter is ablated away, non-finite gradients are
  // screened: Byzantine clients can send NaN/Inf payloads and no
  // downstream statistic is defined on them.
  std::vector<std::size_t> all;
  all.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (std::isfinite(last_norm_.norms[i])) all.push_back(i);
  if (all.empty()) {
    // No trustworthy gradient this round; emit a zero update. No
    // coordinate sample is drawn.
    selected_.clear();
    last_cluster_ = SignClusterResult{};
    obs::count(obs::Stage::kFilter, obs::Counter::kFilterRejects, n);
    prev_aggregate_.assign(d, 0.0f);
    return prev_aggregate_;
  }

  const std::vector<std::size_t>& s1 =
      cfg_.enable_norm_filter ? last_norm_.accepted : all;

  // Step 2: sign-based clustering.
  std::vector<std::size_t> s2 = all;
  last_cluster_ = SignClusterResult{};
  if (cfg_.enable_sign_cluster) {
    last_cluster_ =
        source.sign_cluster(last_norm_.median_norm, cfg_.cluster, rng_);
    s2 = last_cluster_.accepted;
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

  // clipped_mean's weights, from the norms the norm filter already paid
  // for (the same accumulation chain as recomputing them).
  std::vector<double> weights(selected_.size(), 1.0);
  if (cfg_.enable_norm_clipping)
    for (std::size_t k = 0; k < selected_.size(); ++k)
      weights[k] =
          clip_weight(last_norm_.norms[selected_[k]], last_norm_.median_norm);
  prev_aggregate_ = source.weighted_mean(selected_, weights);
  return prev_aggregate_;
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
