#pragma once
// Compressed-domain statistics: SignGuard's filtering inputs computed
// straight from validated wire buffers, without decoding a single float.
// This is the server half of the wire path:
//
//   uplinks --validate()--> wire_row_norms / wire_sign_stats
//          --> norm + sign-cluster filters --> decode ONLY the trusted
//          set, chunk by chunk, into the weighted mean
//
// Per-codec statistic sources (the per-chunk hooks in comm/codec.h):
//   sign1  norms from the 4-byte per-chunk scales alone; sign counts as
//          a masked 64-bit popcount over the packed payload bits
//   int8   norms via a per-chunk 256-entry squared-decode table gather;
//          signs straight from the int8 codes (exact ldexp never flushes
//          a nonzero code to zero)
//   topk   norms/signs from the stored exact values + index deltas
//          (absent coordinates decoded to 0.0f)
//   none   the raw float payload, read in place
//
// Equivalence contract (tested bit-for-bit in tests/test_comm.cc and
// tests/test_signguard.cc): for every buffer validate() accepts,
// wire_row_norms equals vec::row_norms of the decoded matrix and
// wire_sign_stats equals sign_statistics of the decoded matrix over the
// same coordinate subset — bitwise, for any SIGNGUARD_THREADS. The
// filters therefore make identical admission decisions on either path.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/codec.h"
#include "comm/wire.h"
#include "common/gradient_stats.h"

namespace signguard::comm {

// A round's sampled coordinate subset re-expressed in per-chunk form,
// built once and shared by every client's statistics pass: for each
// chunk, the in-chunk offsets (strictly ascending) plus the same subset
// as packed bits in the sign1 payload layout (comm/codec.h ChunkCoords).
class CoordMask {
 public:
  // `coords` are global coordinate indices in [0, d), distinct, in any
  // order (select_coordinates' sample order is fine — sign counts are
  // order-free).
  CoordMask(std::size_t d, std::size_t chunk,
            std::span<const std::size_t> coords);

  std::size_t n_coords() const { return n_coords_; }
  std::size_t n_chunks() const { return begin_.size() - 1; }

  ChunkCoords chunk_coords(std::size_t c) const {
    return {std::span<const std::uint32_t>(offsets_)
                .subspan(begin_[c], begin_[c + 1] - begin_[c]),
            std::span<const std::uint8_t>(mask_).subspan(
                mask_begin_[c], mask_begin_[c + 1] - mask_begin_[c])};
  }

 private:
  std::size_t n_coords_;
  std::vector<std::uint32_t> offsets_;     // in-chunk, ascending per chunk
  std::vector<std::size_t> begin_;         // offsets_ range per chunk
  std::vector<std::uint8_t> mask_;         // packed bits per chunk
  std::vector<std::size_t> mask_begin_;    // mask_ range per chunk
};

// One aggregation round's worth of uplinks, every buffer already
// accepted by comm::validate (the statistics hooks assume validated
// payloads). Non-owning views into the trainer's per-client buffers.
struct WireRound {
  const Codec* codec = nullptr;
  std::span<const std::vector<std::uint8_t>> uplinks;
  std::size_t d = 0;
};

// L2 norm of every (virtual) decoded row, straight from wire bytes.
// Bitwise equal to vec::row_norms of the decoded matrix; rows fan out
// over the common/parallel pool.
std::vector<double> wire_row_norms(const WireRound& wire);

// Sign statistics of every (virtual) decoded row over the mask's
// coordinate subset. Bitwise equal to sign_statistics(decoded, coords).
std::vector<SignStats> wire_sign_stats(const WireRound& wire,
                                       const CoordMask& mask);

}  // namespace signguard::comm
