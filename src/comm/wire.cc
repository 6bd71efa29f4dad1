#include "comm/wire.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/hash.h"
#include "common/parallel.h"

namespace signguard::comm {

namespace {

inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Everything up to (but not including) the per-chunk codec decode:
// header fields, record structure, and the payload checksum.
DecodeStatus check_structure(const Codec& codec,
                             std::span<const std::uint8_t> buf, std::size_t d,
                             const WireLayout& l) {
  if (buf.size() < kWireHeaderSize) return DecodeStatus::kTruncated;
  const std::uint8_t* h = buf.data();
  if (h[0] != 'S' || h[1] != 'G' || h[2] != 'T' || h[3] != '1' || h[5] != 0 ||
      h[6] != 0 || h[7] != 0)
    return DecodeStatus::kBadMagic;
  if (h[4] != static_cast<std::uint8_t>(codec.kind()))
    return DecodeStatus::kCodecMismatch;
  if (get_u64(h + 8) != d) return DecodeStatus::kDimMismatch;
  if (get_u32(h + 16) != l.chunk) return DecodeStatus::kChunkMismatch;

  // Structural walk before the checksum: a buffer cut short reports
  // kTruncated (the likely transport failure), while a size-consistent
  // buffer with damaged bytes reports kChecksumMismatch below.
  std::size_t off = kWireHeaderSize;
  for (std::size_t c = 0; c < l.n_chunks; ++c) {
    if (buf.size() - off < 4) return DecodeStatus::kTruncated;
    const std::size_t psize = codec.chunk_payload_size(l.len(c));
    if (get_u32(buf.data() + off) != psize)
      return DecodeStatus::kBadChunkLength;
    if (buf.size() - off - 4 < psize) return DecodeStatus::kTruncated;
    off += 4 + psize;
  }
  if (off != buf.size()) return DecodeStatus::kTrailingBytes;

  if (get_u64(h + 20) != wire_checksum(buf))
    return DecodeStatus::kChecksumMismatch;
  return DecodeStatus::kOk;
}

// The one acceptance walk behind decode_into (row = the output row) and
// validate (row == nullptr): check_structure, then every chunk through
// Codec::decode_chunk, so the two accept exactly the same buffers with
// the same status. Every record's offset and length is verified before
// the chunks fan out over the pool into disjoint coordinate ranges.
DecodeStatus decode_chunks(const Codec& codec,
                           std::span<const std::uint8_t> buf, std::size_t d,
                           float* row) {
  const WireLayout l = wire_layout(codec, d);
  const DecodeStatus st = check_structure(codec, buf, d, l);
  if (st != DecodeStatus::kOk) return st;
  std::atomic<bool> ok{true};
  common::parallel_chunks(
      l.n_chunks, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t c = begin; c < end && ok.load(); ++c)
          if (!codec.decode_chunk(l.payload(buf, c), l.len(c),
                                  row == nullptr ? nullptr : row + c * l.chunk))
            ok.store(false);
      });
  return ok.load() ? DecodeStatus::kOk : DecodeStatus::kMalformedChunk;
}

}  // namespace

WireLayout wire_layout(const Codec& codec, std::size_t d) {
  WireLayout l;
  l.chunk = codec.chunk();
  if (d == 0) return l;
  l.n_chunks = (d + l.chunk - 1) / l.chunk;
  l.tail_len = d - (l.n_chunks - 1) * l.chunk;
  l.full_record = 4 + codec.chunk_payload_size(l.chunk);
  l.total = kWireHeaderSize + (l.n_chunks - 1) * l.full_record + 4 +
            codec.chunk_payload_size(l.tail_len);
  return l;
}

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kTruncated:
      return "truncated";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kCodecMismatch:
      return "codec-mismatch";
    case DecodeStatus::kDimMismatch:
      return "dim-mismatch";
    case DecodeStatus::kChunkMismatch:
      return "chunk-mismatch";
    case DecodeStatus::kBadChunkLength:
      return "bad-chunk-length";
    case DecodeStatus::kChecksumMismatch:
      return "checksum-mismatch";
    case DecodeStatus::kMalformedChunk:
      return "malformed-chunk";
    case DecodeStatus::kTrailingBytes:
      return "trailing-bytes";
  }
  return "unknown";
}

std::uint64_t wire_checksum(std::span<const std::uint8_t> buf) {
  const std::size_t skip = std::min(buf.size(), kWireHeaderSize);
  return common::xxh64(buf.data() + skip, buf.size() - skip);
}

std::size_t encoded_size(const Codec& codec, std::size_t d) {
  return wire_layout(codec, d).total;
}

void encode_into(const Codec& codec, std::span<const float> row,
                 std::vector<std::uint8_t>& out,
                 std::vector<CodecScratch>& scratch) {
  const std::size_t d = row.size();
  const WireLayout l = wire_layout(codec, d);
  out.resize(l.total);

  std::uint8_t* h = out.data();
  h[0] = 'S';
  h[1] = 'G';
  h[2] = 'T';
  h[3] = '1';
  h[4] = static_cast<std::uint8_t>(codec.kind());
  h[5] = h[6] = h[7] = 0;
  put_u64(h + 8, d);
  put_u32(h + 16, static_cast<std::uint32_t>(l.chunk));

  if (scratch.size() < common::thread_count())
    scratch.resize(common::thread_count());
  // Records land at precomputed offsets, so the chunk fan-out writes
  // disjoint byte ranges — bitwise thread-invariant by construction. A
  // worker hands its chunks to the codec in runs of up to kChainWidth
  // chunks of one length (the row's short tail chunk runs alone).
  common::parallel_chunks(
      l.n_chunks,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        CodecScratch& s = scratch[worker];
        std::uint8_t* payloads[kChainWidth];
        for (std::size_t c = begin; c < end;) {
          const std::size_t len = l.len(c);
          std::size_t k = 0;
          do {
            const std::span<std::uint8_t> p = l.payload(out, c + k);
            put_u32(p.data() - 4,  // the record's length prefix
                    static_cast<std::uint32_t>(p.size()));
            payloads[k++] = p.data();
          } while (k < kChainWidth && c + k < end && l.len(c + k) == len);
          codec.encode_chunks(row.subspan(c * l.chunk, k * len),
                              {payloads, k}, s);
          c += k;
        }
      });

  put_u64(h + 20, wire_checksum(out));
}

DecodeStatus decode_into(const Codec& codec,
                         std::span<const std::uint8_t> buf,
                         std::span<float> row) {
  return decode_chunks(codec, buf, row.size(), row.data());
}

DecodeStatus validate(const Codec& codec, std::span<const std::uint8_t> buf,
                      std::size_t d) {
  return decode_chunks(codec, buf, d, nullptr);
}

}  // namespace signguard::comm
