#pragma once
// Gradient uplink codecs: the compression half of the transport layer
// that sits between fl::Client and the server-side GradientMatrix. A
// codec turns a chunk of float32 gradient coordinates into a byte
// payload and back; the framing around chunks (header, length prefixes,
// checksum) lives in comm/wire.h.
//
// Determinism contract (shared with the rest of the codebase):
//   * encode is a pure function of the chunk's floats — no RNG, no
//     platform dependence, sequential accumulation inside a chunk — so
//     encoded bytes are bitwise thread-invariant and reproducible, and
//     do not depend on which chunks one encode_chunks call covers.
//   * chunk_payload_size() depends only on the chunk length, never on
//     the data, so every chunk's output offset is computable up front
//     and chunks can be encoded/decoded concurrently into disjoint
//     slots (comm/wire.h does exactly that on the common/parallel pool).
//   * encode(decode(encode(x))) == encode(x) byte-for-byte for every
//     finite input: a decoded gradient re-enters the wire in exactly the
//     bytes it arrived in, so relays and replays cannot drift.
//   * decode_chunk never exhibits UB on hostile bytes — a Byzantine
//     client controls its own payload — and rejects any chunk that a
//     legitimate encoder could not have produced (non-finite scales,
//     out-of-range codes, non-monotone sparse indices), so corrupt
//     uplinks cannot inject NaN/inf into the aggregation pipeline. It
//     is each codec's one statement of that rule: called without an
//     output it only checks, which is how comm::validate accepts
//     exactly the payloads comm::decode_into does.
//
// Codecs (kind byte is the on-wire id; never renumber):
//   none  raw little-endian float32 — the identity transport.
//   sign1 1 bit per coordinate + one float32 mean-|x| scale per chunk
//         (à la SignSGD). sign(decode(x)) == sign(x) coordinate-wise
//         (zeros surface as +scale), so SignGuard's sign statistics
//         survive compression exactly. ~32x smaller at chunk 4096.
//   int8  per-chunk symmetric quantization to q in [-127, 127] with
//         deterministic round-half-even on a power-of-two grid (the
//         stored per-chunk parameter is the step exponent, sized so
//         max|x| spans [64, 128) steps). A power-of-two step decodes
//         with exact float arithmetic, which is what makes re-encoding
//         a bitwise projection even for denormal chunks — an arbitrary
//         scale (or an affine offset) cannot round-trip once its own
//         rounding error grows. ~4x smaller.
//   topk  magnitude top-k sparsification per chunk (k = k_fraction of
//         the chunk, at least 1) with a deterministic
//         magnitude-then-value-then-index tie-break; surviving entries
//         are stored as exact float32 plus u16 index deltas.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace signguard::comm {

enum class CodecKind : std::uint8_t {
  kNone = 0,
  kSign1 = 1,
  kInt8 = 2,
  kTopK = 3,
};

// Index deltas inside a chunk are u16, so a chunk never spans more
// coordinates than one delta can express.
inline constexpr std::size_t kMaxChunk = 65536;

// Trainer-facing knob: which codec, how many coordinates per wire chunk,
// and (top-k only) which fraction of each chunk survives.
struct CompressionSpec {
  CodecKind codec = CodecKind::kNone;
  std::size_t chunk = 4096;
  double k_fraction = 0.05;
};

// Most accumulation chains one hook call advances together: the rows
// of one chunk_norm2 call, the chunks of one encode_chunks call. A
// serial double chain waits out each add's latency; kChainWidth
// independent chains in one coordinate-outer loop keep the adders busy.
// Every chain still adds its own terms in its own order, so the width
// changes speed, never bits.
inline constexpr std::size_t kChainWidth = 8;

// Reusable per-worker scratch for encode_chunks (top-k candidate
// ordering). One instance per concurrent encoder; zero steady-state
// allocation once grown.
struct CodecScratch {
  std::vector<std::uint32_t> order;
};

// Sampled-coordinate view of one chunk for the compressed-domain sign
// statistics (comm/stats.h builds one per chunk, shared by every client
// in the round). Both members describe the same coordinate subset:
//   offsets  in-chunk coordinate offsets, strictly ascending, distinct
//   mask     the same offsets as packed bits, (len + 7) / 8 bytes in the
//            sign1 payload bit layout (bit j of byte j/8 = offset j
//            sampled), so sign counting is one masked popcount sweep
struct ChunkCoords {
  std::span<const std::uint32_t> offsets;
  std::span<const std::uint8_t> mask;
};

class Codec {
 public:
  explicit Codec(std::size_t chunk) : chunk_(chunk) {}
  virtual ~Codec() = default;

  virtual CodecKind kind() const = 0;
  // The canonical lowercase name, codec_name(kind()).
  const char* name() const;

  // Coordinates per wire chunk (every chunk but the row's tail).
  std::size_t chunk() const { return chunk_; }

  // Exact payload size of a chunk of `len` coordinates. Data-independent
  // by contract (see file header).
  virtual std::size_t chunk_payload_size(std::size_t len) const = 0;

  // Encodes a run of payloads.size() (1..kChainWidth) chunks of one
  // length, len = in.size() / payloads.size(): chunk i is
  // in[i * len, (i + 1) * len) and gets exactly chunk_payload_size(len)
  // bytes at payloads[i]. Each chunk's bytes depend on its own
  // coordinates alone. sign1 advances the run's scale chains together;
  // the other codecs encode the run's chunks one after another.
  virtual void encode_chunks(std::span<const float> in,
                             std::span<std::uint8_t* const> payloads,
                             CodecScratch& scratch) const = 0;

  // Inverse of encode_chunks for one chunk of `len` coordinates: returns
  // false when the payload's internals are malformed (the wire layer
  // surfaces that as DecodeStatus::kMalformedChunk). `in` has already
  // been length-checked against chunk_payload_size(len). With `out`, an
  // accepted payload writes all of out[0, len); with out == nullptr the
  // call only checks and writes nothing. Either way the verdict is the
  // same, since both run the one rejection rule.
  virtual bool decode_chunk(std::span<const std::uint8_t> in,
                            std::size_t len, float* out) const = 0;

  // --- compressed-domain statistics (the SignGuard wire path) ---
  // The two hooks below let the server run SignGuard's filters on wire
  // bytes without materializing floats. Each consumes a payload of
  // exactly chunk_payload_size(len) bytes that decode_chunk accepts (the
  // contracts hold for no other), and is bitwise-equivalent to the
  // corresponding scan of the decoded chunk; the equivalence is what
  // tests/test_comm.cc's CommStats suite pins down per codec.

  // Continues the squared-norm chains of payloads.size() (1..kChainWidth)
  // rows over one chunk position: payloads[r] is row r's payload of
  // exactly chunk_payload_size(len) bytes and acc[r] its chain. Per row,
  // bitwise identical to
  //   for (j in chunk) acc[r] += double(x_r[j]) * double(x_r[j]);
  // on the decoded coordinates (the sequential-double-chain contract of
  // vec::dot), which is what makes wire-path norms equal decode-path
  // norms bit for bit. Coordinates run in the outer loop and the rows'
  // chains in the inner one.
  virtual void chunk_norm2(std::span<const std::uint8_t* const> payloads,
                           std::size_t len, std::span<double> acc) const = 0;

  // Sign census of the decoded chunk restricted to the sampled offsets
  // in `coords`: adds into counts[0] (x > 0), counts[1] (x == 0),
  // counts[2] (x < 0). Integer counts are order-free, so this is exact
  // regardless of traversal; sign1 implements it as a masked popcount
  // over the payload bits.
  virtual void chunk_sign_counts(std::span<const std::uint8_t> in,
                                 std::size_t len, const ChunkCoords& coords,
                                 std::size_t counts[3]) const = 0;

 private:
  std::size_t chunk_;
};

// Survivor count of the top-k codec for a chunk of `len` coordinates:
// min(len, max(1, nearbyint(k_fraction * len))), capped at the u16 count
// field. Exposed so codec-aware callers (attacks/wirecraft.cc crafts
// exactly-k-spike chunks, tests pin the formula) share the encoder's
// arithmetic instead of re-deriving it.
std::size_t topk_keep_count(double k_fraction, std::size_t len);

// Canonical lowercase codec names ("none", "sign1", "int8", "topk").
const char* codec_name(CodecKind kind);
// Throws std::invalid_argument for an unknown name.
CodecKind codec_kind_from_name(const std::string& name);

// Builds the configured codec. Throws std::invalid_argument for a
// degenerate spec: chunk outside [1, kMaxChunk], or (top-k) k_fraction
// outside (0, 1].
std::unique_ptr<Codec> make_codec(const CompressionSpec& spec);

}  // namespace signguard::comm
