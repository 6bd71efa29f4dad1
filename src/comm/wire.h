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
// floats are bitwise identical for any SIGNGUARD_THREADS. WireLayout is
// the one place that turns a chunk index into its record's bytes; every
// reader and writer of records goes through it.
//
// decode_into trusts nothing — a Byzantine client controls its own
// bytes. Every read is bounds-checked, every structural field is
// validated against the server's configured codec, and failures come
// back as a typed DecodeStatus (no asserts, no exceptions on the decode
// path, no out-of-bounds access). An accepted buffer always decodes to
// all-finite rows. validate runs the same walk without an output row.

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
// contract), which is what lets encode, decode and the compressed-domain
// statistics pass in comm/stats.h address chunk c through len(c) and
// payload(buf, c) alone.
struct WireLayout {
  std::size_t chunk = 0;        // coords in every chunk but the last
  std::size_t n_chunks = 0;
  std::size_t tail_len = 0;     // coords in the last chunk
  std::size_t full_record = 0;  // bytes of a full chunk's record
  std::size_t total = kWireHeaderSize;

  // Coordinates of chunk c; they start at coordinate c * chunk.
  std::size_t len(std::size_t c) const {
    return c + 1 == n_chunks ? tail_len : chunk;
  }

  // Chunk c's payload: the chunk_payload_size(len(c)) bytes after record
  // c's u32 length prefix, as a span over `buf` (a vector or span of
  // exactly `total` bytes; const-ness carries over).
  template <class Bytes>
  auto payload(Bytes& buf, std::size_t c) const {
    const std::size_t begin = kWireHeaderSize + c * full_record + 4;
    const std::size_t end = c + 1 == n_chunks ? total : begin - 4 + full_record;
    return std::span(buf).subspan(begin, end - begin);
  }
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

// Full acceptance check without materializing a single float:
// decode_into's own walk with no output row (the structural checks, the
// checksum, then each chunk through Codec::decode_chunk check-only), so
// it returns exactly the status decode_into would on every buffer. The
// compressed-domain statistics pass (comm/stats.h) runs only on buffers
// this accepted, which is how hostile bytes are rejected before any
// filter sees a statistic.
DecodeStatus validate(const Codec& codec, std::span<const std::uint8_t> buf,
                      std::size_t d);

}  // namespace signguard::comm
