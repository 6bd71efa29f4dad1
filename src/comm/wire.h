#pragma once
// The wire format of the gradient transport layer: framing around the
// comm/codec.h chunk payloads. One uplink buffer per client per round:
//
//   [ 28-byte header ][ chunk record ][ chunk record ] ... (ceil(d/chunk))
//
//   header:  0..4   magic "SGT1"
//            4      codec id (CodecKind)
//            5..8   reserved, must be zero
//            8..16  d — coordinate count (u64 LE)
//           16..20  chunk size — coords per chunk (u32 LE)
//           20..28  wire_checksum: XXH64 (seed 0, u64 LE) of every byte
//                   after the header
//   record:  u32 LE payload length, then the codec's chunk payload
//
// Because every codec's chunk payload size is a pure function of the
// chunk length (comm/codec.h contract), all record offsets are known up
// front: encode and decode fan chunks out over the common/parallel pool
// into disjoint byte/coordinate ranges, so the bytes and the decoded
// floats are bitwise identical for any SIGNGUARD_THREADS.
//
// decode_into trusts nothing — a Byzantine client controls its own
// bytes. Every read is bounds-checked, every structural field is
// validated against the server's configured codec, and failures come
// back as a typed DecodeStatus (no asserts, no exceptions on the decode
// path, no out-of-bounds access). An accepted buffer always decodes to
// all-finite rows.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/codec.h"

namespace signguard::comm {

enum class DecodeStatus {
  kOk = 0,
  kTruncated,         // buffer ends before the declared structure does
  kBadMagic,          // wrong magic or nonzero reserved bytes
  kCodecMismatch,     // header codec id != the round's configured codec
  kDimMismatch,       // header d != the model's parameter count
  kChunkMismatch,     // header chunk size != the configured chunk size
  kBadChunkLength,    // a record's length prefix != the codec's size
  kChecksumMismatch,  // payload bytes don't match the header checksum
  kMalformedChunk,    // codec-level rejection (bad scale, index, code)
  kTrailingBytes,     // well-formed chunks followed by extra bytes
};

const char* to_string(DecodeStatus status);

inline constexpr std::size_t kWireHeaderSize = 28;

// Chunk geometry of a d-coordinate row under `codec`: record sizes are
// fixed for every chunk but the tail, so record c starts at
// kWireHeaderSize + c * full_record. Data-independent (the codec
// contract), which is what lets the compressed-domain statistics pass
// in comm/stats.h walk a validated buffer without re-deriving offsets.
struct WireLayout {
  std::size_t n_chunks = 0;
  std::size_t tail_len = 0;     // coords in the last chunk
  std::size_t full_record = 0;  // bytes of a full chunk's record
  std::size_t total = kWireHeaderSize;
};

WireLayout wire_layout(const Codec& codec, std::size_t d);

// Exact wire size of a d-coordinate row under `codec` — header, length
// prefixes and payloads. Data-independent (uplink accounting uses it as
// the per-client cost without touching gradient bytes).
std::size_t encoded_size(const Codec& codec, std::size_t d);

// Encodes `row` into `out` (resized to exactly encoded_size; capacity is
// reused round over round). `scratch` holds one CodecScratch per pool
// worker — pass the same instance every call for zero steady-state
// allocation; it is grown on demand.
void encode_into(const Codec& codec, std::span<const float> row,
                 std::vector<std::uint8_t>& out,
                 std::vector<CodecScratch>& scratch);

// The payload checksum stored in header bytes 20..28: common::xxh64 of
// every byte after the header (of no bytes when `buf` is shorter than
// the header). Encode writes it, and decode_into and validate refuse a
// buffer whose stored value differs.
std::uint64_t wire_checksum(std::span<const std::uint8_t> buf);

// Decodes `buf` straight into `row` (a GradientMatrix row of the
// expected dimension). On any status but kOk the row's contents are
// unspecified, but every access stayed in bounds.
DecodeStatus decode_into(const Codec& codec,
                         std::span<const std::uint8_t> buf,
                         std::span<float> row);

// Full acceptance check without materializing a single float: identical
// structural walk, checksum, and per-chunk codec validation, so
// validate(...) == kOk  <=>  decode_into(...) == kOk (and the statuses
// match on rejection too — the test suite pins this down over the
// adversarial corpus). The compressed-domain statistics pass
// (comm/stats.h) runs only on buffers this accepted, which is how
// hostile bytes are rejected before any filter sees a statistic.
DecodeStatus validate(const Codec& codec, std::span<const std::uint8_t> buf,
                      std::size_t d);

}  // namespace signguard::comm
