// SignGuard core tests: each filter in isolation (norm thresholding, sign
// clustering, clipped-mean aggregation, index intersection), then the
// composed Algorithm 2 against the paper's attacks, the -Sim/-Dist
// variants, ablation toggles, and the fraction-agnostic property.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "attacks/byzmean.h"
#include "attacks/lie.h"
#include "attacks/minmax_minsum.h"
#include "attacks/simple_attacks.h"
#include "comm/codec.h"
#include "comm/stats.h"
#include "comm/wire.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "common/vecops.h"
#include "core/filters.h"
#include "core/signguard.h"
#include "obs/metrics.h"
#include "fixtures.h"

namespace signguard::core {
namespace {

using common::GradientMatrix;

GradientMatrix matrix(const std::vector<std::vector<float>>& rows) {
  return GradientMatrix::from_vectors(rows);
}

// Overwrites the last `count` rows with the first `count` rows scaled by
// `factor`: sign-flipped (-1) or inflated copies of benign gradients.
void plant_scaled_copies(GradientMatrix& g, std::size_t count,
                         double factor) {
  const std::size_t first = g.rows() - count;
  for (std::size_t i = 0; i < count; ++i) {
    std::ranges::copy(g.row(i), g.row(first + i).begin());
    vec::scale(g.row(first + i), factor);
  }
}

// Overwrites rows [first, g.rows()) with LIE's crafted vector over the
// rows before them.
void plant_lie(GradientMatrix& g, std::size_t first, double z) {
  const auto views = g.row_views();
  const auto gm =
      attacks::LieAttack::craft_vector(std::span(views).first(first), z);
  for (std::size_t i = first; i < g.rows(); ++i)
    std::ranges::copy(gm, g.row(i).begin());
}

agg::GarContext gar_ctx() { return agg::GarContext{}; }

// --------------------------------------------------------- norm filter

TEST(NormFilter, AcceptsWithinBand) {
  // Norms 1,1,1,10 -> median 1; with R=3 the big one is rejected.
  const auto g =
      matrix({{1.0f, 0.0f}, {0.0f, 1.0f}, {-1.0f, 0.0f}, {10.0f, 0.0f}});
  const auto r = norm_filter(g, NormFilterConfig{});
  EXPECT_DOUBLE_EQ(r.median_norm, 1.0);
  EXPECT_EQ(r.accepted, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(NormFilter, RejectsVanishinglySmall) {
  const auto g =
      matrix({{1.0f, 0.0f}, {0.0f, 1.0f}, {-1.0f, 0.0f}, {0.0001f, 0.0f}});
  const auto r = norm_filter(g, NormFilterConfig{});
  EXPECT_EQ(r.accepted, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(NormFilter, BoundaryRatiosInclusive) {
  // Ratios exactly L and R are accepted (closed interval).
  const auto g = matrix(
      {{1.0f, 0.0f}, {1.0f, 0.0f}, {1.0f, 0.0f}, {3.0f, 0.0f}, {0.1f, 0.0f}});
  const auto r = norm_filter(g, NormFilterConfig{});
  EXPECT_EQ(r.accepted.size(), 5u);
}

TEST(NormFilter, AllZeroGradientsAcceptEverything) {
  const GradientMatrix g(4, 3);
  const auto r = norm_filter(g, NormFilterConfig{});
  EXPECT_EQ(r.accepted.size(), 4u);
  EXPECT_DOUBLE_EQ(r.median_norm, 0.0);
}

// ------------------------------------------------------ sign clustering

TEST(SignClusterFilter, IsolatesSignFlippedGradients) {
  // Benign gradients biased positive; flipped ones biased negative: the
  // sign statistics separate them cleanly.
  auto g = gaussian_grads(20, 512, 0.5, 1.0, 1);
  plant_scaled_copies(g, 4, -1.0);
  Rng rng(2);
  SignClusterConfig cfg;
  const auto r = sign_cluster_filter(g, {}, 1.0, cfg, rng);
  EXPECT_EQ(r.accepted.size(), 16u);
  for (const auto idx : r.accepted) EXPECT_LT(idx, 16u);
}

TEST(SignClusterFilter, FeatureRowsAreSignProportions) {
  const auto g = gaussian_grads(6, 256, 0.0, 1.0, 3);
  Rng rng(4);
  SignClusterConfig cfg;
  cfg.coord_frac = 1.0;  // use every coordinate -> exact statistics
  const auto r = sign_cluster_filter(g, {}, 1.0, cfg, rng);
  ASSERT_EQ(r.features.rows(), 6u);
  ASSERT_EQ(r.features.cols(), 3u);
  for (std::size_t i = 0; i < 6; ++i) {
    const SignStats s = sign_statistics(g.row(i));
    const auto f = r.features.row(i);
    EXPECT_NEAR(f[0], s.pos, 1e-6);
    EXPECT_NEAR(f[1], s.zero, 1e-6);
    EXPECT_NEAR(f[2], s.neg, 1e-6);
    EXPECT_NEAR(f[0] + f[1] + f[2], 1.0, 1e-6);
  }
}

TEST(SignClusterFilter, SimVariantAppendsCosineFeature) {
  const auto g = gaussian_grads(5, 64, 0.2, 1.0, 5);
  const std::vector<float> ref(g.row(0).begin(), g.row(0).end());
  Rng rng(6);
  SignClusterConfig cfg;
  cfg.similarity = SimilarityFeature::kCosine;
  const auto r = sign_cluster_filter(g, ref, 1.0, cfg, rng);
  ASSERT_EQ(r.features.cols(), 4u);
  EXPECT_NEAR(r.features.at(0, 3), 1.0, 1e-5);  // cos(g0, g0) == 1
}

TEST(SignClusterFilter, DistVariantNormalizesByMedianNorm) {
  const auto g = gaussian_grads(5, 64, 0.2, 1.0, 7);
  const std::vector<float> ref(g.row(0).begin(), g.row(0).end());
  Rng rng(8);
  SignClusterConfig cfg;
  cfg.similarity = SimilarityFeature::kDistance;
  const double med = 2.0;
  const auto r = sign_cluster_filter(g, ref, med, cfg, rng);
  EXPECT_NEAR(r.features.at(0, 3), 0.0, 1e-6);
  EXPECT_NEAR(r.features.at(1, 3), vec::dist(g.row(1), ref) / med, 1e-5);
}

TEST(SignClusterFilter, KMeansClustererAlsoSeparates) {
  auto g = gaussian_grads(15, 512, 0.5, 1.0, 9);
  plant_scaled_copies(g, 3, -1.0);
  Rng rng(10);
  SignClusterConfig cfg;
  cfg.clusterer = Clusterer::kKMeans2;
  const auto r = sign_cluster_filter(g, {}, 1.0, cfg, rng);
  EXPECT_EQ(r.accepted.size(), 12u);
  for (const auto idx : r.accepted) EXPECT_LT(idx, 12u);
}

// ------------------------------------------------- aggregation helpers

TEST(ClippedMean, ClipsOnlyAboveBound) {
  const auto g = matrix({{3.0f, 4.0f},    // norm 5
                         {0.3f, 0.4f}});  // norm 0.5
  const std::vector<std::size_t> sel = {0, 1};
  const auto out = clipped_mean(g, sel, 1.0);
  // First gradient scaled by 1/5, second untouched.
  EXPECT_NEAR(out[0], 0.5f * (3.0f / 5.0f + 0.3f), 1e-6);
  EXPECT_NEAR(out[1], 0.5f * (4.0f / 5.0f + 0.4f), 1e-6);
}

TEST(ClippedMean, DisabledClipIsPlainSubsetMean) {
  const auto g = matrix({{10.0f}, {2.0f}, {100.0f}});
  const std::vector<std::size_t> sel = {0, 1};
  const auto out = clipped_mean(g, sel, 1.0, /*clip=*/false);
  EXPECT_FLOAT_EQ(out[0], 6.0f);
}

TEST(IntersectIndices, BasicAndEmpty) {
  const std::vector<std::size_t> a = {5, 1, 3};
  const std::vector<std::size_t> b = {3, 2, 5};
  EXPECT_EQ(intersect_indices(a, b), (std::vector<std::size_t>{3, 5}));
  const std::vector<std::size_t> c = {7};
  EXPECT_TRUE(intersect_indices(a, c).empty());
}

// --------------------------------------------------- composed SignGuard

TEST(SignGuard, NoAttackKeepsBenignMajority) {
  // Paper scale: n=50 clients. Mean-shift on the sign features keeps the
  // overwhelming majority of honest gradients — Table II reports a ~0.96
  // honest selection rate, and a small drop is expected behaviour (§VI-A
  // "SignGuard-type methods inevitably exclude part of honest gradients").
  const auto g = gaussian_grads(50, 4096, 0.1, 0.5, 11);
  SignGuard sg(plain_config());
  const auto out = sg.aggregate(g, gar_ctx());
  EXPECT_GE(sg.last_selected().size(), 45u);
  EXPECT_EQ(out.size(), 4096u);
}

TEST(SignGuard, RejectsHugeNormGradients) {
  auto g = gaussian_grads(20, 256, 0.1, 0.5, 12);
  plant_scaled_copies(g, 4, 100.0);
  SignGuard sg(plain_config());
  sg.aggregate(g, gar_ctx());
  for (const auto idx : sg.last_selected()) EXPECT_LT(idx, 16u);
}

TEST(SignGuard, RejectsSignFlippedGradients) {
  auto g = gaussian_grads(20, 1024, 0.4, 1.0, 13);
  plant_scaled_copies(g, 4, -1.0);
  SignGuard sg(plain_config());
  sg.aggregate(g, gar_ctx());
  std::size_t malicious_kept = 0;
  for (const auto idx : sg.last_selected())
    if (idx >= 16) ++malicious_kept;
  EXPECT_EQ(malicious_kept, 0u);
}

TEST(SignGuard, RejectsLieCraftedGradients) {
  // Positive-mean benign population: LIE with large-ish z flips a visible
  // share of signs, which the clustering filter detects.
  auto g = gaussian_grads(20, 1024, 0.3, 0.6, 14);
  plant_lie(g, 16, 1.5);
  SignGuard sg(plain_config());
  sg.aggregate(g, gar_ctx());
  std::size_t malicious_kept = 0;
  for (const auto idx : sg.last_selected())
    if (idx >= 16) ++malicious_kept;
  EXPECT_EQ(malicious_kept, 0u);
}

TEST(SignGuard, DoesNotUseAssumedByzantineCount) {
  // Fraction-agnostic: the result must be identical whatever m is claimed.
  auto g = gaussian_grads(12, 256, 0.2, 0.5, 15);
  SignGuard sg1(plain_config(7));
  SignGuard sg2(plain_config(7));
  agg::GarContext c0;
  c0.assumed_byzantine = 0;
  agg::GarContext c5;
  c5.assumed_byzantine = 5;
  EXPECT_EQ(sg1.aggregate(g, c0), sg2.aggregate(g, c5));
}

TEST(SignGuard, DeterministicForSameSeed) {
  const auto g = gaussian_grads(10, 128, 0.1, 1.0, 16);
  SignGuard a(plain_config(42)), b(plain_config(42));
  EXPECT_EQ(a.aggregate(g, gar_ctx()), b.aggregate(g, gar_ctx()));
}

TEST(SignGuard, VariantNamesFollowConfig) {
  EXPECT_EQ(SignGuard(plain_config()).name(), "SignGuard");
  EXPECT_EQ(SignGuard(sim_config()).name(), "SignGuard-Sim");
  EXPECT_EQ(SignGuard(dist_config()).name(), "SignGuard-Dist");
}

TEST(SignGuard, SimVariantUsesPreviousAggregateAsReference) {
  const auto g = gaussian_grads(10, 256, 0.3, 0.5, 17);
  SignGuard sg(sim_config());
  sg.aggregate(g, gar_ctx());
  EXPECT_FALSE(sg.previous_aggregate().empty());
  // Second round: reference now set; still keeps the benign majority.
  sg.aggregate(g, gar_ctx());
  EXPECT_GT(sg.last_selected().size(), 5u);
}

TEST(SignGuard, ResetClearsCrossRoundState) {
  const auto g = gaussian_grads(6, 64, 0.1, 0.5, 18);
  SignGuard sg(sim_config());
  sg.aggregate(g, gar_ctx());
  sg.reset();
  EXPECT_TRUE(sg.previous_aggregate().empty());
  EXPECT_TRUE(sg.last_selected().empty());
}

TEST(SignGuard, NormClipBoundsAggregateNorm) {
  // Even if the attacker inflates magnitudes inside the accepted band,
  // the output norm stays within the median norm (convexity of the mean
  // of clipped vectors).
  const auto g = gaussian_grads(11, 128, 0.2, 1.0, 19);
  SignGuard sg(plain_config());
  const auto out = sg.aggregate(g, gar_ctx());
  EXPECT_LE(vec::norm(out), sg.last_norm_filter().median_norm + 1e-6);
}

TEST(SignGuard, SingleGradientDegenerate) {
  const auto g = matrix({{0.5f, -0.5f, 1.0f}});
  SignGuard sg(plain_config());
  const auto out = sg.aggregate(g, gar_ctx());
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(sg.last_selected(), (std::vector<std::size_t>{0}));
}

// ------------------------------------------------------ ablation toggles

TEST(SignGuardAblation, ClusterOnlyMissesScaledReverse) {
  // Reverse attack scaled within the norm band: without the sign filter,
  // thresholding alone cannot reject it.
  auto g = gaussian_grads(20, 512, 0.4, 1.0, 20);
  plant_scaled_copies(g, 4, -1.0);

  SignGuardConfig norm_only = plain_config();
  norm_only.enable_sign_cluster = false;
  SignGuard sg_norm(norm_only);
  sg_norm.aggregate(g, gar_ctx());
  std::size_t kept_by_norm_only = 0;
  for (const auto idx : sg_norm.last_selected())
    if (idx >= 16) ++kept_by_norm_only;
  EXPECT_EQ(kept_by_norm_only, 4u);  // norm filter is blind to direction

  SignGuardConfig cluster_only = plain_config();
  cluster_only.enable_norm_filter = false;
  cluster_only.enable_norm_clipping = false;
  SignGuard sg_cluster(cluster_only);
  sg_cluster.aggregate(g, gar_ctx());
  std::size_t kept_by_cluster = 0;
  for (const auto idx : sg_cluster.last_selected())
    if (idx >= 16) ++kept_by_cluster;
  EXPECT_EQ(kept_by_cluster, 0u);  // sign filter catches the flip
}

TEST(SignGuardAblation, NormFilterCatchesScaledAttack) {
  // 100x scaled reverse gradients: the norm filter alone rejects them.
  auto g = gaussian_grads(20, 256, 0.4, 1.0, 21);
  plant_scaled_copies(g, 4, -100.0);
  SignGuardConfig norm_only = plain_config();
  norm_only.enable_sign_cluster = false;
  SignGuard sg(norm_only);
  sg.aggregate(g, gar_ctx());
  for (const auto idx : sg.last_selected()) EXPECT_LT(idx, 16u);
}

TEST(SignGuardAblation, AllDisabledIsPlainMean) {
  const auto g = gaussian_grads(8, 64, 0.1, 1.0, 22);
  SignGuardConfig cfg = plain_config();
  cfg.enable_norm_filter = false;
  cfg.enable_sign_cluster = false;
  cfg.enable_norm_clipping = false;
  SignGuard sg(cfg);
  const auto out = sg.aggregate(g, gar_ctx());
  const auto mean = vec::mean_of(g);
  for (std::size_t j = 0; j < mean.size(); ++j)
    EXPECT_NEAR(out[j], mean[j], 1e-5);
}

// ------------------------------------------- compressed-domain wire path

comm::CompressionSpec wire_spec(comm::CodecKind kind, std::size_t chunk,
                                double k = 0.1) {
  comm::CompressionSpec s;
  s.codec = kind;
  s.chunk = chunk;
  s.k_fraction = k;
  return s;
}

// A round of uplinks carrying every adversarial row shape the filters
// care about: benign positive-mean gaussians, sign-flipped rows, a
// huge-norm row, a denormal-tiny row, an all-zero row. `decoded` holds
// exactly what the decode-everything reference path would see (for lossy
// codecs that is NOT the original rows).
struct WireFixture {
  std::unique_ptr<comm::Codec> codec;
  std::vector<std::vector<std::uint8_t>> uplinks;
  common::GradientMatrix decoded;

  comm::WireRound round() const {
    return {codec.get(), uplinks, decoded.cols()};
  }
};

WireFixture make_wire_round(const comm::CompressionSpec& spec, std::size_t d,
                            std::uint64_t seed) {
  WireFixture f;
  f.codec = comm::make_codec(spec);
  Rng rng(seed);
  std::vector<std::vector<float>> rows;
  for (std::size_t i = 0; i < 14; ++i)
    rows.push_back(rng.normal_vector(d, 0.3, 0.8));
  rows.push_back(vec::scaled(rows[0], -1.0));   // sign-flipped
  rows.push_back(vec::scaled(rows[1], -1.0));
  rows.push_back(vec::scaled(rows[2], 100.0));  // huge norm
  std::vector<float> tiny(d);
  for (auto& v : tiny) v = static_cast<float>(rng.normal()) * 1e-42f;
  rows.push_back(tiny);                         // denormals
  rows.push_back(std::vector<float>(d, 0.0f));  // all-zero
  f.decoded.resize(rows.size(), d);
  std::vector<comm::CodecScratch> scratch;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::vector<std::uint8_t> buf;
    comm::encode_into(*f.codec, rows[i], buf, scratch);
    EXPECT_EQ(comm::validate(*f.codec, buf, d), comm::DecodeStatus::kOk);
    EXPECT_EQ(comm::decode_into(*f.codec, buf, f.decoded.row(i)),
              comm::DecodeStatus::kOk);
    f.uplinks.push_back(std::move(buf));
  }
  return f;
}

// The wire-path contract: aggregate_wire on the wire bytes produces the
// bitwise-identical trusted set, filter-stage admit/reject counters and
// aggregate as aggregate() on the decoded matrix — for every codec,
// chunk size, both clusterers, with and without clipping, any thread
// count, and round over round (the Rng streams must stay aligned or the
// two paths diverge after the first call). The streamed survivor mean
// must also bill exactly the decode traffic of materializing every
// survivor row.
TEST(SignGuardWire, MatchesDecodePathBitwise) {
  struct ThreadGuard {
    ~ThreadGuard() { common::set_thread_count(0); }
  } guard;
  // No chunk size but 1 divides its d, so every layout ends in a partial
  // tail chunk; at chunk 65536 that is one full chunk plus the tail. The
  // tiny chunks run at a smaller d: int8's per-chunk norm table makes a
  // 1-coordinate chunk expensive.
  const struct {
    std::size_t chunk, d;
  } layouts[] = {{1, 1001}, {7, 3001}, {256, 70001}, {65536, 70001}};
  const comm::CodecKind kinds[] = {comm::CodecKind::kNone,
                                   comm::CodecKind::kSign1,
                                   comm::CodecKind::kInt8,
                                   comm::CodecKind::kTopK};
  for (const auto [chunk, d] : layouts) {
    for (const auto kind : kinds) {
      const auto f = make_wire_round(wire_spec(kind, chunk, 0.1), d, 97);
      for (const auto clusterer :
           {Clusterer::kMeanShift, Clusterer::kKMeans2}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          for (const bool clip : {true, false}) {
            common::set_thread_count(threads);
            SignGuardConfig cfg = plain_config(33);
            cfg.cluster.clusterer = clusterer;
            cfg.enable_norm_clipping = clip;
            SignGuard dec(cfg), wire(cfg);
            for (int round = 0; round < 3; ++round) {
              obs::MetricsRegistry dec_reg(false), reg(false);
              std::vector<float> a, b;
              {
                obs::ScopedMetrics scope(&dec_reg);
                dec_reg.begin_round(0);
                a = dec.aggregate(f.decoded, gar_ctx());
                dec_reg.end_round();
              }
              {
                obs::ScopedMetrics scope(&reg);
                reg.begin_round(0);
                b = wire.aggregate_wire(f.round(), gar_ctx());
                reg.end_round();
              }
              const auto where = [&] {
                return std::string(f.codec->name()) +
                       " chunk=" + std::to_string(chunk) +
                       " clusterer=" + std::to_string(int(clusterer)) +
                       " threads=" + std::to_string(threads) +
                       " clip=" + std::to_string(clip) +
                       " round=" + std::to_string(round);
              };
              ASSERT_EQ(dec.last_selected(), wire.last_selected()) << where();
              ASSERT_EQ(a.size(), b.size());
              ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * 4))
                  << where();
              const std::uint64_t survivors = wire.last_selected().size();
              const auto filter = [](const obs::MetricsRegistry& r) {
                return r.rounds().at(0).counters[std::size_t(
                    obs::Stage::kFilter)];
              };
              for (const auto c :
                   {obs::Counter::kFilterAdmits, obs::Counter::kFilterRejects})
                EXPECT_EQ(filter(dec_reg)[std::size_t(c)],
                          filter(reg)[std::size_t(c)])
                    << where();
              EXPECT_EQ(filter(reg)[std::size_t(obs::Counter::kFilterAdmits)],
                        survivors)
                  << where();
              // Lazy decode: only the survivors were decoded (the
              // huge-norm row, at least, never was).
              EXPECT_LT(survivors, f.decoded.rows()) << where();
              EXPECT_EQ(wire.last_decoded_bytes(), survivors * d * 4)
                  << where();
              const auto& decode =
                  reg.rounds().at(0).counters[std::size_t(obs::Stage::kDecode)];
              EXPECT_EQ(decode[std::size_t(obs::Counter::kRowsDecoded)],
                        survivors)
                  << where();
              EXPECT_EQ(decode[std::size_t(obs::Counter::kDenseBytes)],
                        survivors * d * 4)
                  << where();
            }
          }
        }
      }
    }
  }
}

TEST(SignGuardWire, AblationTogglesStayBitwiseEqual) {
  const std::size_t d = 777;  // chunk 64 -> 12 full chunks + tail 9
  for (const auto kind :
       {comm::CodecKind::kNone, comm::CodecKind::kSign1,
        comm::CodecKind::kInt8, comm::CodecKind::kTopK}) {
    const auto f = make_wire_round(wire_spec(kind, 64), d, 101);
    for (int variant = 0; variant < 4; ++variant) {
      SignGuardConfig cfg = plain_config(55);
      if (variant == 0) cfg.enable_norm_filter = false;
      if (variant == 1) cfg.enable_sign_cluster = false;
      if (variant == 2) cfg.enable_norm_clipping = false;
      if (variant == 3) {
        cfg.enable_norm_filter = false;
        cfg.enable_sign_cluster = false;
        cfg.enable_norm_clipping = false;
      }
      SignGuard dec(cfg), wire(cfg);
      const auto a = dec.aggregate(f.decoded, gar_ctx());
      const auto b = wire.aggregate_wire(f.round(), gar_ctx());
      const std::string where =
          std::string(f.codec->name()) + " variant=" + std::to_string(variant);
      EXPECT_EQ(dec.last_selected(), wire.last_selected()) << where;
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * 4)) << where;
    }
  }
}

TEST(SignGuardWire, SimVariantDeclinesTheWirePath) {
  // The similarity feature needs decoded rows; the trainer checks
  // supports_wire_path() and keeps Sim/Dist on the decode path.
  EXPECT_TRUE(SignGuard(plain_config()).supports_wire_path());
  EXPECT_FALSE(SignGuard(sim_config()).supports_wire_path());
  EXPECT_FALSE(SignGuard(dist_config()).supports_wire_path());
}

TEST(SignGuardWire, HostileBytesAreRefusedBeforeTheStatisticsPass) {
  // aggregate_wire's precondition is comm::validate acceptance — the
  // trainer screens every uplink first. A payload crafted to poison the
  // statistics (negative sign1 scale, the int8 -128 sentinel) must be
  // refused by validate even when its checksum is internally consistent.
  Rng rng(7);
  const std::size_t d = 100;
  const auto fix = [](std::vector<std::uint8_t>& buf) {
    const std::uint64_t sum = comm::wire_checksum(buf);
    for (int i = 0; i < 8; ++i)
      buf[20 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  };
  std::vector<comm::CodecScratch> scratch;
  {
    const auto codec =
        comm::make_codec(wire_spec(comm::CodecKind::kSign1, 64));
    std::vector<std::uint8_t> buf;
    comm::encode_into(*codec, rng.normal_vector(d, 0.3, 1.0), buf, scratch);
    buf[comm::kWireHeaderSize + 4 + 3] |= 0x80;  // scale := -scale
    fix(buf);
    EXPECT_EQ(comm::validate(*codec, buf, d),
              comm::DecodeStatus::kMalformedChunk);
  }
  {
    const auto codec = comm::make_codec(wire_spec(comm::CodecKind::kInt8, 64));
    std::vector<std::uint8_t> buf;
    comm::encode_into(*codec, rng.normal_vector(d, 0.3, 1.0), buf, scratch);
    buf[comm::kWireHeaderSize + 4 + 2] = 0x80;  // first code := -128
    fix(buf);
    EXPECT_EQ(comm::validate(*codec, buf, d),
              comm::DecodeStatus::kMalformedChunk);
  }
}

// --------------------------------------- parameterized attack rejection

class SignGuardVariantSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(SignGuardVariantSweep, MajorityOfMaliciousRejected) {
  const auto [variant, attack_name] = GetParam();
  const std::size_t n = 20, m = 4, d = 1024;
  // Benign rows first, the m malicious rows overwrite the tail.
  auto g = gaussian_grads(n, d, 0.3, 0.8, 23);

  Rng rng(24);
  if (attack_name == "SignFlip") {
    plant_scaled_copies(g, m, -1.0);
  } else if (attack_name == "LIE-strong") {
    plant_lie(g, n - m, 1.5);
  } else if (attack_name == "Random") {
    for (std::size_t i = n - m; i < n; ++i)
      std::ranges::copy(rng.normal_vector(d, 0.0, 0.5), g.row(i).begin());
  } else {  // Scaled
    plant_scaled_copies(g, m, 20.0);
  }

  SignGuardConfig cfg = variant == "Sim"   ? sim_config()
                        : variant == "Dist" ? dist_config()
                                             : plain_config();
  SignGuard sg(cfg);
  sg.aggregate(g, gar_ctx());
  std::size_t malicious_kept = 0;
  for (const auto idx : sg.last_selected())
    if (idx >= n - m) ++malicious_kept;
  EXPECT_LE(malicious_kept, 1u)
      << "variant=" << variant << " attack=" << attack_name;
}

INSTANTIATE_TEST_SUITE_P(
    VariantsTimesAttacks, SignGuardVariantSweep,
    ::testing::Combine(::testing::Values("Plain", "Sim", "Dist"),
                       ::testing::Values("SignFlip", "LIE-strong", "Random",
                                         "Scaled")),
    [](const auto& info) {
      auto name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace signguard::core
