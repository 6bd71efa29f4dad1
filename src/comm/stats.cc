#include "comm/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/parallel.h"
#include "obs/trace.h"

namespace signguard::comm {

CoordMask::CoordMask(std::size_t d, std::size_t chunk,
                     std::span<const std::size_t> coords)
    : n_coords_(coords.size()) {
  assert(chunk > 0);
  const std::size_t n_chunks = d == 0 ? 0 : (d + chunk - 1) / chunk;

  // One pass of mask geometry (data-independent), then a sorted scatter:
  // sorting the global sample once gives every chunk its offsets in
  // ascending order — the ChunkCoords contract the topk merge and the
  // popcount mask both rely on.
  mask_begin_.assign(n_chunks + 1, 0);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t len = std::min(chunk, d - c * chunk);
    mask_begin_[c + 1] = mask_begin_[c] + (len + 7) / 8;
  }
  mask_.assign(mask_begin_[n_chunks], 0);

  std::vector<std::size_t> sorted(coords.begin(), coords.end());
  std::sort(sorted.begin(), sorted.end());

  offsets_.resize(sorted.size());
  begin_.assign(n_chunks + 1, 0);
  std::size_t i = 0;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    begin_[c] = i;
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(lo + chunk, d);
    std::uint8_t* mk = mask_.data() + mask_begin_[c];
    while (i < sorted.size() && sorted[i] < hi) {
      assert(sorted[i] >= lo);
      const auto o = static_cast<std::uint32_t>(sorted[i] - lo);
      offsets_[i] = o;
      mk[o >> 3] |= static_cast<std::uint8_t>(1u << (o & 7u));
      ++i;
    }
  }
  begin_[n_chunks] = i;
  assert(i == sorted.size());  // every coordinate must lie in [0, d)
}

std::vector<double> wire_row_norms(const WireRound& wire) {
  assert(wire.codec != nullptr);
  obs::Span span("wire/row_norms", std::int64_t(wire.uplinks.size()));
  const Codec& codec = *wire.codec;
  const WireLayout l = wire_layout(codec, wire.d);
  const std::size_t n = wire.uplinks.size();
  std::vector<double> out(n, 0.0);
  // Rows in blocks of kChainWidth, one block per task: each chunk_norm2
  // call advances the block's chains together, and each row's chain
  // depends on its own bytes alone.
  common::parallel_for(
      (n + kChainWidth - 1) / kChainWidth, [&](std::size_t b) {
        const std::size_t r0 = b * kChainWidth;
        const std::size_t rows = std::min(kChainWidth, n - r0);
        const std::span<double> acc(out.data() + r0, rows);
        const std::uint8_t* payloads[kChainWidth];
        for (std::size_t c = 0; c < l.n_chunks; ++c) {
          for (std::size_t r = 0; r < rows; ++r) {
            assert(wire.uplinks[r0 + r].size() == l.total);  // validated
            payloads[r] = l.payload(wire.uplinks[r0 + r], c).data();
          }
          codec.chunk_norm2({payloads, rows}, l.len(c), acc);
        }
        for (double& a : acc) a = std::sqrt(a);
      });
  return out;
}

std::vector<SignStats> wire_sign_stats(const WireRound& wire,
                                       const CoordMask& mask) {
  assert(wire.codec != nullptr);
  obs::Span span("wire/sign_stats", std::int64_t(wire.uplinks.size()));
  const Codec& codec = *wire.codec;
  const WireLayout l = wire_layout(codec, wire.d);
  assert(mask.n_chunks() == l.n_chunks);
  std::vector<SignStats> out(wire.uplinks.size());
  common::parallel_for(wire.uplinks.size(), [&](std::size_t i) {
    const std::vector<std::uint8_t>& buf = wire.uplinks[i];
    assert(buf.size() == l.total);  // validated upstream
    std::size_t counts[3] = {0, 0, 0};
    for (std::size_t c = 0; c < l.n_chunks; ++c)
      codec.chunk_sign_counts(l.payload(buf, c), l.len(c),
                              mask.chunk_coords(c), counts);
    if (mask.n_coords() == 0) return;  // sign_statistics' empty-coords case
    const double n = double(mask.n_coords());
    out[i].pos = double(counts[0]) / n;
    out[i].zero = double(counts[1]) / n;
    out[i].neg = double(counts[2]) / n;
  });
  return out;
}

}  // namespace signguard::comm
