// comm suite: encode/decode throughput and wire-level compression ratio
// for every comm codec at d in {100k, 1M}, the compressed-domain
// statistics kernels (comm/stats.h), and the filtered SignGuard round
// end to end — decode-everything vs the wire path that filters on wire
// bytes and decodes only the trusted set. Gated: the transport layer's
// headline numbers — the sign1 wire ratio, sign1's single-thread decode
// rate in GB/s of dense gradient, the filter-stage byte advantage of the
// wire path (n=256, d=1M, sign1) and its single-thread round speedup.
//
// Codec structure rows are timed on ONE pool thread: the numbers
// compare codec structure, not core counts. Pool-threaded rows
// (threads=4) ride alongside for the decode and statistics kernels — on
// a single-core runner they show the fan-out overhead floor, on
// multi-core hosts the scaling.
//
// Entries: the name is the codec; params {d, threads}. Rates are GB/s
// of dense gradient, ratios ("ratio", "round-speedup", "filter-bytes")
// are x-factors with usec 0.

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "comm/stats.h"
#include "comm/wire.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/signguard.h"
#include "microbench.h"

namespace signguard::microbench {
namespace {

constexpr comm::CodecKind kCodecs[] = {
    comm::CodecKind::kNone, comm::CodecKind::kSign1, comm::CodecKind::kInt8,
    comm::CodecKind::kTopK};

std::unique_ptr<comm::Codec> make(comm::CodecKind kind) {
  comm::CompressionSpec spec;
  spec.codec = kind;
  return comm::make_codec(spec);
}

// Deterministic cheap fill (splitmix64 of the index): bench inputs must
// not depend on RNG streaming speed, and stay identical across hosts.
// The positive bias keeps the sign statistics of benign rows away from
// 50/50, so the filtered round's sign clusters are separable — same
// regime the paper's benign gradients live in.
void fill_row(std::span<float> row, std::uint64_t salt, float bias) {
  for (std::size_t j = 0; j < row.size(); ++j) {
    const std::uint64_t h =
        common::splitmix64(salt ^ (j * 0x9e3779b97f4a7c15ull));
    row[j] =
        static_cast<float>((double(h >> 11) * 0x1.0p-53 - 0.5) * 2.0) + bias;
  }
}

void record_rate(Run& run, const char* group, const std::string& codec,
                 std::size_t d, std::size_t threads, double usec, double gb) {
  run.record(group, codec, {{"d", d}, {"threads", threads}}, usec,
             gb / (usec * 1e-6), "GB/s");
}

void bench_codec(Run& run, comm::CodecKind kind, std::size_t d) {
  const auto codec = make(kind);
  std::vector<float> row(d), out(d);
  fill_row(row, 0, 0.01f);
  std::vector<std::uint8_t> buf;
  std::vector<comm::CodecScratch> scratch;
  const double dense_gb = double(d) * 4.0 / 1e9;

  common::set_thread_count(1);
  record_rate(run, "encode", codec->name(), d, 1,
              run.timer.time_usec(
                  [&] { comm::encode_into(*codec, row, buf, scratch); }),
              dense_gb);
  const auto decode_op = [&] {
    if (comm::decode_into(*codec, buf, out) != comm::DecodeStatus::kOk)
      std::abort();
  };
  record_rate(run, "decode", codec->name(), d, 1,
              run.timer.time_usec(decode_op), dense_gb);
  // Pool-threaded decode of the same buffer: chunk records fan out over
  // the pool into disjoint coordinate ranges (bitwise-identical rows).
  common::set_thread_count(4);
  record_rate(run, "decode", codec->name(), d, 4,
              run.timer.time_usec(decode_op), dense_gb);
  common::set_thread_count(1);
  run.record("ratio", codec->name(), {{"d", d}, {"threads", 1ul}}, 0.0,
             double(d) * 4.0 / double(buf.size()), "x");
}

// The compressed-domain statistics kernels over a small cohort: the
// filter inputs (row norms + sampled sign statistics) computed straight
// from wire bytes. Rates are dense-equivalent GB/s — the rate at which
// the pass covers gradient coordinates it never materialized — directly
// comparable to the decode rows above, which must pay that traffic. The
// cohort is four of wire_row_norms' 8-row blocks (comm::kChainWidth
// rows each), so the 4-thread rows give every worker a block.
void bench_wire_stats(Run& run, comm::CodecKind kind, std::size_t d) {
  const auto codec = make(kind);
  const std::size_t n = 4 * comm::kChainWidth;
  std::vector<std::vector<std::uint8_t>> uplinks(n);
  std::vector<comm::CodecScratch> scratch;
  std::vector<float> row(d);
  for (std::size_t i = 0; i < n; ++i) {
    fill_row(row, i + 1, 0.01f);
    comm::encode_into(*codec, row, uplinks[i], scratch);
  }
  const comm::WireRound wire{codec.get(), uplinks, d};
  Rng rng(1);
  const auto coords = select_coordinates(d, 0.1, rng);
  const comm::CoordMask mask(d, codec->chunk(), coords);
  const double dense_gb = double(n) * double(d) * 4.0 / 1e9;

  for (const std::size_t threads : {1ul, 4ul}) {
    common::set_thread_count(threads);
    record_rate(run, "norms", codec->name(), d, threads,
                run.timer.time_usec(
                    [&] { (void)comm::wire_row_norms(wire); }),
                dense_gb);
    const double sign_usec =
        run.timer.time_usec([&] { (void)comm::wire_sign_stats(wire, mask); });
    record_rate(run, "signstats", codec->name(), d, threads, sign_usec,
                dense_gb);
    // The popcount pass's traffic in *wire* bytes: per row the packed
    // sign bits plus the shared coordinate mask.
    if (kind == comm::CodecKind::kSign1)
      record_rate(run, "signstats-wire", codec->name(), d, threads,
                  sign_usec, double(n) * 2.0 * (double(d) / 8.0) / 1e9);
  }
  common::set_thread_count(1);
}

// The filtered SignGuard round at cohort scale (n=256 clients, d=1M,
// sign1), ~20% adversarial rows (half sign-flipped inside the norm
// band, half norm-inflated), timed both ways from the same validated
// uplinks:
//   decode path: decode all n uplinks into the round matrix, then
//                SignGuard::aggregate on the matrix
//   wire path:   SignGuard::aggregate_wire — filters on wire statistics,
//                decodes only the trusted set
// The two are bitwise-identical by contract (self-checked here with
// fresh same-seed instances before timing; the test suite pins it down
// across the full codec/attack grid).
void bench_filtered_round(Run& run) {
  const std::size_t n = 256, d = 1'000'000;
  const std::size_t n_byz = n / 5;  // 51 adversarial rows
  const auto codec = make(comm::CodecKind::kSign1);

  std::vector<std::vector<std::uint8_t>> uplinks(n);
  std::vector<comm::CodecScratch> scratch;
  std::vector<float> row(d);
  for (std::size_t i = 0; i < n; ++i) {
    fill_row(row, i + 1, 0.2f);
    if (i < n_byz / 2) {
      for (auto& v : row) v = -v;  // sign flip, norm preserved
    } else if (i < n_byz) {
      for (auto& v : row) v *= 100.0f;  // norm inflation
    }
    comm::encode_into(*codec, row, uplinks[i], scratch);
    if (comm::validate(*codec, uplinks[i], d) != comm::DecodeStatus::kOk)
      std::abort();
  }
  const comm::WireRound wire{codec.get(), uplinks, d};
  const agg::GarContext ctx;

  common::GradientMatrix grads(n, d);
  const auto decode_all = [&] {
    for (std::size_t i = 0; i < n; ++i)
      if (comm::decode_into(*codec, uplinks[i], grads.row(i)) !=
          comm::DecodeStatus::kOk)
        std::abort();
  };

  decode_all();
  {
    core::SignGuard a(core::plain_config(5)), b(core::plain_config(5));
    const auto ref = a.aggregate(grads, ctx);
    const auto got = b.aggregate_wire(wire, ctx);
    run.check(a.last_selected() == b.last_selected() &&
                  ref.size() == got.size() &&
                  std::memcmp(ref.data(), got.data(), ref.size() * 4) == 0,
              "wire path diverged from decode path");
    const std::size_t n_selected = b.last_selected().size();
    run.check(n_selected + n_byz / 2 <= n, "norm-inflated rows were admitted");
    std::printf("filtered round: n=%zu d=%zu byz=%zu -> trusted=%zu\n", n, d,
                n_byz, n_selected);
  }

  const double dense_gb = double(n) * double(d) * 4.0 / 1e9;
  for (const std::size_t threads : {1ul, 4ul}) {
    common::set_thread_count(threads);
    core::SignGuard sg_dec(core::plain_config(9));
    const double dec_usec = run.timer.time_usec([&] {
      decode_all();
      (void)sg_dec.aggregate(grads, ctx);
    });
    record_rate(run, "round-decode", "sign1", d, threads, dec_usec, dense_gb);
    core::SignGuard sg_wire(core::plain_config(9));
    const double wire_usec =
        run.timer.time_usec([&] { (void)sg_wire.aggregate_wire(wire, ctx); });
    record_rate(run, "round-wire", "sign1", d, threads, wire_usec, dense_gb);
    run.record("round-speedup", "sign1", {{"d", d}, {"threads", threads}}, 0.0,
               dec_usec / wire_usec, "x");
  }
  common::set_thread_count(1);

  // Bytes the FILTER stage touches to reach the admission decision —
  // the traffic the wire path exists to avoid. Decode path: read every
  // wire buffer, write 4d dense floats per row, read them back for the
  // norm pass, gather the sampled coordinates for the sign pass. Wire
  // path: 4 scale bytes per chunk for the norms, the packed sign bits
  // plus the shared mask for the popcount pass. Survivor decoding is
  // excluded on both sides — the wire path pays it too, once, for the
  // |trusted| rows the round actually aggregates.
  std::uint64_t wire_bytes = 0;
  for (const auto& u : uplinks) wire_bytes += u.size();
  Rng crng(1);
  const std::size_t n_coords = select_coordinates(d, 0.1, crng).size();
  const double decode_filter =
      double(wire_bytes) + 2.0 * 4.0 * double(n) * double(d) +
      4.0 * double(n) * double(n_coords);
  const auto layout = comm::wire_layout(*codec, d);
  const double wire_filter =
      double(n) * (4.0 * double(layout.n_chunks) + 2.0 * double(d) / 8.0);
  run.record("filter-bytes", "sign1", {{"d", d}, {"threads", 1ul}}, 0.0,
             decode_filter / wire_filter, "x");
}

}  // namespace

void comm_suite(Run& run) {
  for (const std::size_t d : {100'000ul, 1'000'000ul})
    for (const auto kind : kCodecs) bench_codec(run, kind, d);
  for (const auto kind : kCodecs) bench_wire_stats(run, kind, 1'000'000);
  bench_filtered_round(run);
}

}  // namespace signguard::microbench
