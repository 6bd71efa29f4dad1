// Gradient transport layer tests: codec round-trip properties (shape
// edges, tail chunks, all-zero rows, denormals, idempotence, thread
// invariance), adversarial wire decoding (every malformed input must
// come back as a typed DecodeStatus, never a crash or an out-of-bounds
// read), trainer-level transport accounting (uplink bytes, per-client
// decode-rejects, the provable no-op of codec "none"), and the sweep
// engine's bandwidth fields (%.9g float round-trip through the JSONL).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/wirecraft.h"
#include "comm/codec.h"
#include "comm/stats.h"
#include "comm/wire.h"
#include "common/format.h"
#include "common/gradient_matrix.h"
#include "common/gradient_stats.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/vecops.h"
#include "data/synth_image.h"
#include "fl/experiment.h"
#include "fl/sweep.h"
#include "fl/trainer.h"
#include "nn/models.h"

namespace signguard {
namespace {

using comm::CodecKind;
using comm::CompressionSpec;
using comm::DecodeStatus;

struct ThreadCountGuard {
  ~ThreadCountGuard() { common::set_thread_count(0); }
};

CompressionSpec spec_of(CodecKind kind, std::size_t chunk = 4096,
                        double k = 0.05) {
  CompressionSpec s;
  s.codec = kind;
  s.chunk = chunk;
  s.k_fraction = k;
  return s;
}

std::vector<std::uint8_t> encode(const comm::Codec& codec,
                                 std::span<const float> row) {
  std::vector<std::uint8_t> buf;
  std::vector<comm::CodecScratch> scratch;
  comm::encode_into(codec, row, buf, scratch);
  return buf;
}

std::vector<float> decode_ok(const comm::Codec& codec,
                             std::span<const std::uint8_t> buf,
                             std::size_t d) {
  std::vector<float> out(d, std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(comm::decode_into(codec, buf, out), DecodeStatus::kOk);
  return out;
}

// The data regimes the property tests sweep: dense gaussians, all-zero
// rows, constant rows, sign-alternating rows, and denormal-tiny values
// (scale derivation must survive underflow).
std::vector<float> make_row(std::size_t d, int regime, Rng& rng) {
  std::vector<float> row(d);
  for (std::size_t j = 0; j < d; ++j) {
    switch (regime) {
      case 0:
        row[j] = static_cast<float>(rng.normal());
        break;
      case 1:
        row[j] = 0.0f;
        break;
      case 2:
        row[j] = 0.75f;
        break;
      case 3:
        row[j] = (j % 2 == 0 ? 1.0f : -1.0f) * float(j % 7) * 0.25f;
        break;
      default:
        row[j] = static_cast<float>(rng.normal()) * 1e-42f;  // denormals
        break;
    }
  }
  return row;
}

const CodecKind kAllKinds[] = {CodecKind::kNone, CodecKind::kSign1,
                               CodecKind::kInt8, CodecKind::kTopK};

// ---- round-trip properties -------------------------------------------------

TEST(CommCodec, RoundTripShapesAndIdempotence) {
  Rng rng(11);
  const std::size_t dims[] = {0,  1,    2,    7,    31,   64,  100,
                              511, 512, 513, 4095, 4096, 4097, 10000};
  for (const auto kind : kAllKinds) {
    for (const std::size_t chunk : {std::size_t{64}, std::size_t{4096}}) {
      const auto codec = comm::make_codec(spec_of(kind, chunk));
      for (const std::size_t d : dims) {
        for (int regime = 0; regime < 5; ++regime) {
          const std::vector<float> row = make_row(d, regime, rng);
          const auto buf = encode(*codec, row);
          ASSERT_EQ(buf.size(), comm::encoded_size(*codec, d));
          const auto decoded = decode_ok(*codec, buf, d);
          for (const float v : decoded) ASSERT_TRUE(std::isfinite(v));
          if (kind == CodecKind::kNone && d > 0) {
            // The identity transport is bitwise lossless. (d == 0 is
            // covered by the size checks; memcmp on a null .data() of
            // an empty vector is UB even for zero bytes.)
            ASSERT_EQ(0, std::memcmp(decoded.data(), row.data(), d * 4));
          }
          // encode(decode(encode(x))) == encode(x): a decoded gradient
          // re-enters the wire in exactly the bytes it arrived in.
          const auto buf2 = encode(*codec, decoded);
          ASSERT_EQ(buf, buf2)
              << "codec=" << codec->name() << " d=" << d << " chunk=" << chunk
              << " regime=" << regime;
        }
      }
    }
  }
}

TEST(CommCodec, Sign1PreservesSignStatisticsExactly) {
  Rng rng(13);
  const auto codec = comm::make_codec(spec_of(CodecKind::kSign1, 256));
  const std::vector<float> row = make_row(3001, 0, rng);
  const auto decoded = decode_ok(*codec, encode(*codec, row), row.size());
  for (std::size_t j = 0; j < row.size(); ++j)
    EXPECT_EQ(std::signbit(row[j]), std::signbit(decoded[j])) << j;
}

TEST(CommCodec, Int8StaysWithinHalfAQuantizationStep) {
  Rng rng(17);
  const auto codec = comm::make_codec(spec_of(CodecKind::kInt8, 512));
  const std::vector<float> row = make_row(1700, 0, rng);
  const auto decoded = decode_ok(*codec, encode(*codec, row), row.size());
  // Per 512-coordinate chunk: the power-of-two step is at most
  // max|x| / 64, so every coordinate lands within max|x| / 128.
  for (std::size_t base = 0; base < row.size(); base += 512) {
    const std::size_t end = std::min(row.size(), base + 512);
    float maxabs = 0.0f;
    for (std::size_t j = base; j < end; ++j)
      maxabs = std::max(maxabs, std::fabs(row[j]));
    for (std::size_t j = base; j < end; ++j)
      EXPECT_NEAR(row[j], decoded[j], maxabs / 128.0f) << j;
  }
}

TEST(CommCodec, TopKKeepsLargestMagnitudesWithExactValues) {
  Rng rng(19);
  const std::size_t chunk = 128;
  const auto codec = comm::make_codec(spec_of(CodecKind::kTopK, chunk, 0.25));
  const std::vector<float> row = make_row(chunk, 0, rng);
  const auto decoded = decode_ok(*codec, encode(*codec, row), row.size());
  // k = 32 survivors; every survivor is bitwise the original value, and
  // no dropped coordinate has magnitude above the smallest survivor.
  float min_kept = std::numeric_limits<float>::infinity();
  std::size_t kept = 0;
  for (std::size_t j = 0; j < row.size(); ++j) {
    if (decoded[j] != 0.0f) {
      ASSERT_EQ(decoded[j], row[j]) << j;
      min_kept = std::min(min_kept, std::fabs(decoded[j]));
      ++kept;
    }
  }
  EXPECT_EQ(kept, 32u);
  for (std::size_t j = 0; j < row.size(); ++j)
    if (decoded[j] == 0.0f) EXPECT_LE(std::fabs(row[j]), min_kept);
}

// d = 20,483 at chunk 512 is 41 chunks, the last of 3 coordinates: each
// of 4 workers encodes one full run of kChainWidth chunks and a short
// one, and the tail chunk runs alone.
TEST(CommCodec, BitwiseThreadInvariant) {
  ThreadCountGuard guard;
  Rng rng(23);
  for (const auto kind : kAllKinds) {
    const auto codec = comm::make_codec(spec_of(kind, 512, 0.1));
    for (const std::size_t d :
         {std::size_t{1}, std::size_t{4097}, std::size_t{20483}}) {
      const std::vector<float> row = make_row(d, 0, rng);
      common::set_thread_count(1);
      const auto buf1 = encode(*codec, row);
      const auto dec1 = decode_ok(*codec, buf1, d);
      common::set_thread_count(4);
      const auto buf4 = encode(*codec, row);
      const auto dec4 = decode_ok(*codec, buf4, d);
      EXPECT_EQ(buf1, buf4) << codec->name() << " d=" << d;
      EXPECT_EQ(0, std::memcmp(dec1.data(), dec4.data(), d * 4))
          << codec->name() << " d=" << d;
    }
  }
}

TEST(CommCodec, TopKFullChunkAtMaxChunkRoundTrips) {
  // The one legal shape where round(k_fraction * len) overflows the u16
  // count field: chunk == kMaxChunk with k_fraction ~ 1. The keep count
  // caps at 65535 and the codec's own output must still decode.
  Rng rng(41);
  const auto codec =
      comm::make_codec(spec_of(CodecKind::kTopK, comm::kMaxChunk, 1.0));
  const std::vector<float> row = make_row(comm::kMaxChunk + 5, 0, rng);
  const auto buf = encode(*codec, row);
  const auto decoded = decode_ok(*codec, buf, row.size());
  EXPECT_EQ(encode(*codec, decoded), buf);  // still idempotent
  // 65535 of 65536 coordinates survive; exactly one is zeroed.
  std::size_t dropped = 0;
  for (std::size_t j = 0; j < comm::kMaxChunk; ++j)
    dropped += decoded[j] == 0.0f && row[j] != 0.0f;
  EXPECT_EQ(dropped, 1u);
}

// The sign1 payload pinned against a per-coordinate scalar oracle: the
// scale is float(sum of |x| in coordinate order / len), bit j of the sign
// bytes is !signbit(x[j]), and the tail bits are zero. The specials cover
// every sign-bit case the harvest reads from raw bits: ±0.0, denormals,
// ±inf and NaNs with either sign bit. A chunk holding NaN sums to NaN;
// which NaN an add of two NaNs returns is left to the compiler's operand
// order, so the codec pins it: the sum takes the first NaN coordinate's
// |x|, in every build type.
TEST(CommCodec, Sign1EncodeMatchesScalarOracle) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,
                            -0.0f,
                            1e-42f,
                            -1e-42f,
                            inf,
                            -inf,
                            std::bit_cast<float>(0x7fc00000u),  // +qNaN
                            std::bit_cast<float>(0xffc00000u),  // -qNaN
                            std::bit_cast<float>(0x7f800001u),  // +sNaN
                            std::bit_cast<float>(0xff800001u)}; // -sNaN
  const std::size_t chunks[] = {1, 7, 64, 4096};
  // At chunk 64, d = 511, 512 and 513 are one chunk short of, exactly
  // and one past a full run of kChainWidth chunks.
  const std::size_t dims[] = {1,   7,   8,    9,    63,   64,  65,
                              511, 512, 513, 4095, 4096, 4097};
  Rng rng(71);
  for (const std::size_t chunk : chunks) {
    const auto codec = comm::make_codec(spec_of(CodecKind::kSign1, chunk));
    for (const std::size_t d : dims) {
      for (const bool with_specials : {false, true}) {
        std::vector<float> row(d);
        for (auto& v : row) v = static_cast<float>(rng.normal());
        if (with_specials)
          for (std::size_t j = 0; j < d; j += 3)
            row[j] = specials[(j / 3) % std::size(specials)];
        const auto buf = encode(*codec, row);
        const comm::WireLayout l = comm::wire_layout(*codec, d);
        ASSERT_EQ(buf.size(), l.total);
        for (std::size_t c = 0; c < l.n_chunks; ++c) {
          const std::size_t len = c + 1 == l.n_chunks ? l.tail_len : chunk;
          const float* x = row.data() + c * chunk;
          std::vector<std::uint8_t> want(4 + (len + 7) / 8, 0);
          double sum = 0.0;
          for (std::size_t j = 0; j < len; ++j) sum += std::fabs(x[j]);
          if (std::isnan(sum))
            sum = std::fabs(*std::find_if(
                x, x + len, [](float v) { return std::isnan(v); }));
          const float scale = static_cast<float>(sum / double(len));
          std::memcpy(want.data(), &scale, 4);
          for (std::size_t j = 0; j < len; ++j)
            if (!std::signbit(x[j]))
              want[4 + j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
          const std::uint8_t* payload =
              buf.data() + comm::kWireHeaderSize + c * l.full_record + 4;
          ASSERT_EQ(0, std::memcmp(payload, want.data(), want.size()))
              << "chunk=" << chunk << " d=" << d << " c=" << c
              << " specials=" << with_specials;
        }
      }
    }
  }
}

TEST(CommCodec, NonFiniteRowsAreDeterministicAndNeverDecodeToNonFinite) {
  // Byzantine-crafted rows reach the codecs unvalidated: encode must be
  // deterministic and defined on ±inf/NaN, and whatever decodes must be
  // finite — either the uplink is rejected (none/sign1/topk store the
  // poison and the decoder refuses it) or it saturates (int8 clamps to
  // ±127 steps).
  Rng rng(43);
  std::vector<float> row = make_row(300, 0, rng);
  row[7] = std::numeric_limits<float>::infinity();
  row[100] = -std::numeric_limits<float>::infinity();
  row[231] = std::numeric_limits<float>::quiet_NaN();
  for (const auto kind : kAllKinds) {
    const auto codec = comm::make_codec(spec_of(kind, 128, 0.1));
    const auto buf = encode(*codec, row);
    EXPECT_EQ(encode(*codec, row), buf) << codec->name();  // deterministic
    std::vector<float> out(row.size());
    const DecodeStatus status = comm::decode_into(*codec, buf, out);
    if (status == DecodeStatus::kOk) {
      for (const float v : out)
        EXPECT_TRUE(std::isfinite(v)) << codec->name();
    } else {
      EXPECT_EQ(status, DecodeStatus::kMalformedChunk) << codec->name();
    }
  }
}

TEST(CommCodec, SpecValidation) {
  EXPECT_THROW(comm::make_codec(spec_of(CodecKind::kSign1, 0)),
               std::invalid_argument);
  EXPECT_THROW(comm::make_codec(spec_of(CodecKind::kSign1, comm::kMaxChunk + 1)),
               std::invalid_argument);
  EXPECT_THROW(comm::make_codec(spec_of(CodecKind::kTopK, 64, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(comm::make_codec(spec_of(CodecKind::kTopK, 64, 1.5)),
               std::invalid_argument);
  EXPECT_THROW(comm::codec_kind_from_name("zstd"), std::invalid_argument);
  for (const auto kind : kAllKinds)
    EXPECT_EQ(comm::codec_kind_from_name(comm::codec_name(kind)), kind);
}

// ---- adversarial decoding --------------------------------------------------

// Rewrites the header checksum so a deliberately malformed buffer is
// *internally consistent* — exactly what a Byzantine client, which
// controls its own bytes, would ship.
void fix_checksum(std::vector<std::uint8_t>& buf) {
  const std::uint64_t sum = comm::wire_checksum(buf);
  for (int i = 0; i < 8; ++i)
    buf[20 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
}

// decode_into's verdict on `buf`, after requiring validate to return the
// same one: every targeted rejection below is checked through both paths.
DecodeStatus decode_status(const comm::Codec& codec,
                           const std::vector<std::uint8_t>& buf,
                           std::size_t d) {
  std::vector<float> out(d);
  const DecodeStatus status = comm::decode_into(codec, buf, out);
  EXPECT_EQ(comm::validate(codec, buf, d), status)
      << codec.name() << " size=" << buf.size();
  return status;
}

TEST(CommWire, AdversarialInputsReturnTypedErrors) {
  Rng rng(29);
  const auto codec = comm::make_codec(spec_of(CodecKind::kSign1, 64));
  const std::size_t d = 200;  // 4 chunks: 64, 64, 64, 8
  const std::vector<float> row = make_row(d, 0, rng);
  const std::vector<std::uint8_t> good = encode(*codec, row);
  ASSERT_EQ(decode_status(*codec, good, d), DecodeStatus::kOk);

  // Truncation at every suspicious boundary: empty, inside the header,
  // header only, inside a record's length prefix, inside a payload.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{5}, comm::kWireHeaderSize - 1,
        comm::kWireHeaderSize, comm::kWireHeaderSize + 2,
        comm::kWireHeaderSize + 10, good.size() - 1}) {
    std::vector<std::uint8_t> buf(good.begin(), good.begin() + cut);
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kTruncated)
        << "cut=" << cut;
  }

  {  // A single flipped payload byte fails the checksum.
    auto buf = good;
    buf[comm::kWireHeaderSize + 9] ^= 0x40;
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kChecksumMismatch);
  }
  {  // Wrong magic / nonzero reserved bytes.
    auto buf = good;
    buf[0] = 'X';
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kBadMagic);
    buf = good;
    buf[6] = 1;
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kBadMagic);
  }
  {  // Wrong codec id: a sign1 server must not decode int8 frames.
    auto buf = good;
    buf[4] = static_cast<std::uint8_t>(CodecKind::kInt8);
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kCodecMismatch);
  }
  {  // Wrong dimension (header d != the model's parameter count).
    auto buf = good;
    buf[8] ^= 0x01;
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kDimMismatch);
  }
  {  // Wrong chunk size.
    auto buf = good;
    buf[16] ^= 0x01;
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kChunkMismatch);
  }
  {  // Oversized length prefix, checksum made consistent: the structural
    // walk must refuse it without ever dereferencing the huge length.
    auto buf = good;
    buf[comm::kWireHeaderSize + 0] = 0xff;
    buf[comm::kWireHeaderSize + 3] = 0x7f;
    fix_checksum(buf);
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kBadChunkLength);
  }
  {  // Trailing garbage after a well-formed frame.
    auto buf = good;
    buf.push_back(0xab);
    fix_checksum(buf);
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kTrailingBytes);
  }
  {  // Codec-level poison: a negative sign1 scale (first payload float).
    auto buf = good;
    buf[comm::kWireHeaderSize + 4 + 3] |= 0x80;  // set the sign bit
    fix_checksum(buf);
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kMalformedChunk);
  }
  {  // Codec-level poison: an infinite scale cannot smuggle inf rows in.
    const float inf = std::numeric_limits<float>::infinity();
    auto buf = good;
    std::memcpy(buf.data() + comm::kWireHeaderSize + 4, &inf, 4);
    fix_checksum(buf);
    EXPECT_EQ(decode_status(*codec, buf, d), DecodeStatus::kMalformedChunk);
  }
}

TEST(CommWire, AdversarialCodecPayloads) {
  Rng rng(31);
  {  // int8: code -128 and an out-of-range exponent are unreachable.
    const auto codec = comm::make_codec(spec_of(CodecKind::kInt8, 32));
    const std::vector<float> row = make_row(32, 0, rng);
    auto buf = encode(*codec, row);
    // Payload layout: [u16 step exponent][32 int8 codes].
    auto poke = buf;
    poke[comm::kWireHeaderSize + 4 + 2] = 0x80;  // first code := -128
    fix_checksum(poke);
    EXPECT_EQ(decode_status(*codec, poke, 32), DecodeStatus::kMalformedChunk);
    poke = buf;
    poke[comm::kWireHeaderSize + 4 + 0] = 0xff;  // exponent := 32767
    poke[comm::kWireHeaderSize + 4 + 1] = 0x7f;
    fix_checksum(poke);
    EXPECT_EQ(decode_status(*codec, poke, 32), DecodeStatus::kMalformedChunk);
  }
  {  // topk: wrong survivor count, zero delta, out-of-chunk index, NaN.
    const auto codec = comm::make_codec(spec_of(CodecKind::kTopK, 32, 0.25));
    const std::vector<float> row = make_row(32, 0, rng);
    const auto buf = encode(*codec, row);  // k = 8 per chunk
    const std::size_t payload = comm::kWireHeaderSize + 4;
    auto poke = buf;
    poke[payload] = 7;  // count field disagrees with the codec's k
    fix_checksum(poke);
    EXPECT_EQ(decode_status(*codec, poke, 32), DecodeStatus::kMalformedChunk);
    poke = buf;
    // Deltas start after the count (2) and the 8 float values (32).
    poke[payload + 2 + 32 + 2] = 0;  // second delta := 0 (non-monotone)
    poke[payload + 2 + 32 + 3] = 0;
    fix_checksum(poke);
    EXPECT_EQ(decode_status(*codec, poke, 32), DecodeStatus::kMalformedChunk);
    poke = buf;
    poke[payload + 2 + 32 + 1] = 0xff;  // first index far beyond the chunk
    fix_checksum(poke);
    EXPECT_EQ(decode_status(*codec, poke, 32), DecodeStatus::kMalformedChunk);
    poke = buf;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::memcpy(poke.data() + payload + 2, &nan, 4);  // first stored value
    fix_checksum(poke);
    EXPECT_EQ(decode_status(*codec, poke, 32), DecodeStatus::kMalformedChunk);
  }
  {  // none: raw floats are the payload, but non-finite ones are refused.
    const auto codec = comm::make_codec(spec_of(CodecKind::kNone, 32));
    const std::vector<float> row = make_row(32, 0, rng);
    auto buf = encode(*codec, row);
    const float inf = -std::numeric_limits<float>::infinity();
    std::memcpy(buf.data() + comm::kWireHeaderSize + 4 + 8, &inf, 4);
    fix_checksum(buf);
    EXPECT_EQ(decode_status(*codec, buf, 32), DecodeStatus::kMalformedChunk);
  }
}

// Crafted-but-wire-legal corpus (attacks/wirecraft.h): the adversarial
// tests above prove hostile bytes are rejected; this one proves the
// wirecraft attacker's *clever* bytes are not — every crafted row must
// survive the wire as DecodeStatus::kOk with finite coordinates, and be
// a bitwise fixed point of its codec (what was crafted is exactly what
// the aggregator sees).
TEST(CommWire, WirecraftRowsAreWireLegalFixedPoints) {
  Rng rng(43);
  const CompressionSpec specs[] = {
      spec_of(CodecKind::kNone, 64), spec_of(CodecKind::kSign1, 64),
      spec_of(CodecKind::kInt8, 64), spec_of(CodecKind::kTopK, 32, 0.25),
      spec_of(CodecKind::kTopK, 64, 1.0)};
  const std::size_t d = 200;  // odd tail chunk for every spec above
  for (const auto& spec : specs) {
    const auto codec = comm::make_codec(spec);
    for (int regime = 0; regime < 5; ++regime) {
      for (const double inflate : {1.0, 8.0, 1e6}) {
        const std::vector<float> inner = make_row(d, regime, rng);
        const std::vector<float> crafted =
            attacks::wirecraft_row(spec, inner, inflate);
        ASSERT_EQ(crafted.size(), d);
        for (const float v : crafted)
          ASSERT_TRUE(std::isfinite(v))
              << codec->name() << " regime=" << regime;
        const auto buf = encode(*codec, crafted);
        std::vector<float> decoded(d);
        ASSERT_EQ(comm::decode_into(*codec, buf, decoded), DecodeStatus::kOk)
            << codec->name() << " regime=" << regime
            << " inflate=" << inflate;
        for (std::size_t j = 0; j < d; ++j)
          ASSERT_EQ(std::bit_cast<std::uint32_t>(decoded[j]),
                    std::bit_cast<std::uint32_t>(crafted[j]))
              << codec->name() << " regime=" << regime << " j=" << j;
      }
    }
  }
}

// ---- compressed-domain statistics ------------------------------------------

// validate() stands in for decode_into() as the wire path's reject
// screen, so the two must agree on *every* input — kOk or the identical
// typed rejection. Fuzz the agreement over truncations and single-byte
// corruptions, both raw and re-checksummed (the internally consistent
// form only a Byzantine client, which controls its own bytes, can ship).
TEST(CommWire, ValidateAgreesWithDecodeOnAdversarialCorpus) {
  Rng rng(41);
  const CompressionSpec specs[] = {
      spec_of(CodecKind::kNone, 64), spec_of(CodecKind::kSign1, 64),
      spec_of(CodecKind::kInt8, 64), spec_of(CodecKind::kTopK, 32, 0.25)};
  const std::size_t d = 200;
  for (const auto& spec : specs) {
    const auto codec = comm::make_codec(spec);
    const auto agree = [&](const std::vector<std::uint8_t>& buf) {
      return decode_status(*codec, buf, d);  // checks validate agrees
    };
    for (int regime = 0; regime < 5; ++regime)
      EXPECT_EQ(agree(encode(*codec, make_row(d, regime, rng))),
                DecodeStatus::kOk);
    const auto good = encode(*codec, make_row(d, 0, rng));
    for (std::size_t cut = 0; cut < good.size();
         cut += (cut < comm::kWireHeaderSize + 8 ? 1 : 5))
      agree(std::vector<std::uint8_t>(good.begin(), good.begin() + cut));
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
      auto flipped = good;
      flipped[pos] ^= 0x80;
      agree(flipped);  // mostly header / checksum rejections
      if (pos >= comm::kWireHeaderSize) {
        fix_checksum(flipped);  // now the payload corruption itself decides
        agree(flipped);
      }
    }
    auto trailing = good;
    trailing.push_back(0xab);
    fix_checksum(trailing);
    EXPECT_EQ(agree(trailing), DecodeStatus::kTrailingBytes);
  }
}

// A single flipped bit anywhere in an honest buffer — header, length
// prefix, payload or the checksum itself — must be refused, by
// decode_into and validate alike. The chaos engine's bit-flip arrivals
// rely on this: a flipped uplink is a reject, never a silently different
// gradient. d = 200 at chunk 64 leaves a short tail chunk.
TEST(CommWire, EverySingleBitFlipIsRejected) {
  Rng rng(47);
  const std::size_t d = 200;
  for (const auto kind : kAllKinds) {
    const auto codec = comm::make_codec(spec_of(kind, 64, 0.25));
    auto buf = encode(*codec, make_row(d, 0, rng));
    ASSERT_EQ(decode_status(*codec, buf, d), DecodeStatus::kOk);
    for (std::size_t bit = 0; bit < 8 * buf.size(); ++bit) {
      const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
      buf[bit / 8] ^= mask;
      EXPECT_NE(decode_status(*codec, buf, d), DecodeStatus::kOk)
          << codec->name() << " bit=" << bit;
      buf[bit / 8] ^= mask;
    }
  }
}

// One cohort of n rows of one codec, chunk and d, cycling the row regimes.
void expect_wire_stats_match_decoded(CodecKind kind, std::size_t chunk,
                                     std::size_t d, std::size_t n, Rng& rng) {
  const auto codec = comm::make_codec(spec_of(kind, chunk, 0.2));
  const std::string where = std::string(codec->name()) +
                            " d=" + std::to_string(d) +
                            " chunk=" + std::to_string(chunk) +
                            " n=" + std::to_string(n);
  std::vector<std::vector<std::uint8_t>> uplinks(n);
  common::GradientMatrix decoded(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    uplinks[i] = encode(*codec, make_row(d, int(i % 5), rng));
    ASSERT_EQ(comm::validate(*codec, uplinks[i], d), DecodeStatus::kOk);
    ASSERT_EQ(comm::decode_into(*codec, uplinks[i], decoded.row(i)),
              DecodeStatus::kOk);
  }
  const comm::WireRound wire{codec.get(), uplinks, d};

  const auto wire_norms = comm::wire_row_norms(wire);
  const auto dec_norms = vec::row_norms(decoded);
  ASSERT_EQ(wire_norms.size(), dec_norms.size());
  for (std::size_t i = 0; i < wire_norms.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(wire_norms[i]),
              std::bit_cast<std::uint64_t>(dec_norms[i]))
        << where << " row=" << i;

  for (const double frac : {0.3, 1.0}) {
    Rng crng(d * 31 + std::size_t(kind));
    const auto coords = select_coordinates(d, frac, crng);
    const comm::CoordMask mask(d, chunk, coords);
    ASSERT_EQ(mask.n_coords(), coords.size());
    const auto ws = comm::wire_sign_stats(wire, mask);
    const auto ds = sign_statistics(decoded, coords);
    ASSERT_EQ(ws.size(), ds.size());
    for (std::size_t i = 0; i < ws.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ws[i].pos),
                std::bit_cast<std::uint64_t>(ds[i].pos))
          << where << " frac=" << frac << " row=" << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ws[i].zero),
                std::bit_cast<std::uint64_t>(ds[i].zero));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ws[i].neg),
                std::bit_cast<std::uint64_t>(ds[i].neg));
    }
  }
}

// The statistics contract that makes the wire path exchangeable with
// decoding everything: for every accepted buffer, wire_row_norms equals
// vec::row_norms of the decoded matrix and wire_sign_stats equals
// sign_statistics over the same coordinate subset — bit for bit, across
// codecs, odd-d tail chunks and the degenerate row regimes (all-zero,
// constant, alternating, denormal), cycled over cohorts of 1, 7, 8, 9
// and 17 rows: a short norm block alone, one full block of kChainWidth
// rows, and full blocks followed by a short one.
TEST(CommStats, WireNormsAndSignStatsMatchDecodedBitwise) {
  Rng rng(43);
  for (const auto kind : kAllKinds)
    for (const std::size_t chunk : {64, 4096})
      for (const std::size_t d : {1, 7, 777, 4096, 4097})
        for (const std::size_t n : {1, 7, 8, 9, 17})
          ASSERT_NO_FATAL_FAILURE(
              expect_wire_stats_match_decoded(kind, chunk, d, n, rng));
}

// 17 rows: two full norm blocks of kChainWidth rows and a short one.
TEST(CommStats, StatisticsPassIsThreadInvariant) {
  ThreadCountGuard guard;
  Rng rng(47);
  const std::size_t d = 30000;
  for (const auto kind : kAllKinds) {
    const auto codec = comm::make_codec(spec_of(kind, 1024, 0.1));
    std::vector<std::vector<std::uint8_t>> uplinks;
    for (int i = 0; i < 17; ++i)
      uplinks.push_back(encode(*codec, make_row(d, i % 5, rng)));
    const comm::WireRound wire{codec.get(), uplinks, d};
    Rng crng(3);
    const auto coords = select_coordinates(d, 0.1, crng);
    const comm::CoordMask mask(d, 1024, coords);

    common::set_thread_count(1);
    const auto n1 = comm::wire_row_norms(wire);
    const auto s1 = comm::wire_sign_stats(wire, mask);
    common::set_thread_count(4);
    const auto n4 = comm::wire_row_norms(wire);
    const auto s4 = comm::wire_sign_stats(wire, mask);

    ASSERT_EQ(n1.size(), n4.size());
    for (std::size_t i = 0; i < n1.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(n1[i]),
                std::bit_cast<std::uint64_t>(n4[i]))
          << codec->name() << " row=" << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s1[i].pos),
                std::bit_cast<std::uint64_t>(s4[i].pos));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s1[i].zero),
                std::bit_cast<std::uint64_t>(s4[i].zero));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s1[i].neg),
                std::bit_cast<std::uint64_t>(s4[i].neg));
    }
  }
}

// ---- trainer integration ---------------------------------------------------

data::TrainTest comm_data() {
  data::SynthImageConfig cfg;
  cfg.train_per_class = 30;
  cfg.test_per_class = 10;
  cfg.seed = 5;
  return data::make_synth_image(cfg);
}

fl::TrainerConfig comm_config() {
  fl::TrainerConfig cfg;
  cfg.n_clients = 10;
  cfg.byzantine_frac = 0.2;
  cfg.rounds = 6;
  cfg.batch_size = 8;
  cfg.lr = 0.1;
  cfg.eval_every = 3;
  cfg.eval_max_samples = 0;
  cfg.seed = 3;
  return cfg;
}

fl::ModelFactory comm_model() {
  return [](std::uint64_t seed) { return nn::make_mlp(256, 16, 10, seed); };
}

// Per-round aggregate checksums through the observer hook: the no-op
// proof compares entire training trajectories, not just end accuracy.
// Owns a SignGuard and forwards to it. The trainer takes the wire path
// only when the GAR itself is a SignGuard, so the wrapper runs the same
// rule through the decode-everything path every other GAR uses.
class DecodePathSignGuard final : public agg::Aggregator {
 public:
  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const agg::GarContext& ctx) override {
    return inner_->aggregate(grads, ctx);
  }
  std::string name() const override { return inner_->name(); }
  std::vector<std::size_t> last_selected() const override {
    return inner_->last_selected();
  }
  bool reports_selection() const override {
    return inner_->reports_selection();
  }

 private:
  std::unique_ptr<agg::Aggregator> inner_ = fl::make_aggregator("SignGuard");
};

std::unique_ptr<agg::Aggregator> signguard_on(bool wire_path) {
  if (wire_path) return fl::make_aggregator("SignGuard");
  return std::make_unique<DecodePathSignGuard>();
}

std::vector<std::uint64_t> run_trace(const data::TrainTest& data,
                                     const fl::TrainerConfig& cfg,
                                     fl::TrainingResult* out = nullptr,
                                     const std::string& attack_name =
                                         "SignFlip",
                                     bool wire_path = true) {
  std::vector<std::uint64_t> trace;
  fl::Trainer trainer(data, comm_model(), cfg);
  auto attack = fl::make_attack(attack_name);
  const auto result = trainer.run(
      *attack, signguard_on(wire_path),
      [&](const fl::RoundObservation& obs) {
        trace.push_back(obs.skipped
                            ? 0
                            : common::fnv1a64(obs.aggregate.data(),
                                              obs.aggregate.size() * 4));
      });
  if (out != nullptr) *out = result;
  return trace;
}

TEST(CommTrainer, NoneCodecTransportIsAProvableNoOp) {
  const auto data = comm_data();
  fl::TrainerConfig off = comm_config();  // transport inactive
  fl::TrainerConfig on = comm_config();   // wire path active, none codec
  on.uplink_tamper = [](std::size_t, std::vector<std::uint8_t>&) {};
  fl::TrainingResult r_off, r_on;
  const auto trace_off = run_trace(data, off, &r_off);
  const auto trace_on = run_trace(data, on, &r_on);
  // Bit-identical aggregates every round: encode→decode under the
  // identity codec reproduces each gradient row exactly.
  EXPECT_EQ(trace_off, trace_on);
  EXPECT_EQ(r_off.final_accuracy, r_on.final_accuracy);
  // Accounting differs by design: only the active path bills bytes.
  EXPECT_EQ(r_off.uplink_bytes, 0u);
  EXPECT_GT(r_on.uplink_bytes, 0u);
  EXPECT_EQ(r_on.decode_rejects, 0u);
  // d floats cost a little more than 4d bytes on the wire (header and
  // length prefixes) — the dense accounting reflects exactly 4d.
  EXPECT_GT(r_on.uplink_bytes, r_on.uplink_dense_bytes);
}

TEST(CommTrainer, Sign1AccountingReportsCompression) {
  const auto data = comm_data();
  fl::TrainerConfig cfg = comm_config();
  cfg.compression = spec_of(CodecKind::kSign1);
  fl::TrainingResult result;
  run_trace(data, cfg, &result);
  ASSERT_GT(result.uplink_bytes, 0u);
  EXPECT_EQ(result.decode_rejects, 0u);
  const double ratio =
      double(result.uplink_dense_bytes) / double(result.uplink_bytes);
  EXPECT_GE(ratio, 16.0);  // the headline sign1 guarantee
  // Every round bills all 10 participants.
  EXPECT_EQ(result.uplink_dense_bytes % (comm_config().rounds * 10), 0u);
}

TEST(CommTrainer, TamperedUplinkSurfacesAsDecodeReject) {
  const auto data = comm_data();
  fl::TrainerConfig cfg = comm_config();
  cfg.compression = spec_of(CodecKind::kInt8);
  // Client 7 (benign: m = 2) ships a flipped payload byte every round.
  cfg.uplink_tamper = [](std::size_t client, std::vector<std::uint8_t>& buf) {
    if (client == 7) buf[comm::kWireHeaderSize + 11] ^= 0x10;
  };
  std::vector<std::size_t> participants, rejects;
  fl::Trainer trainer(data, comm_model(), cfg);
  auto attack = fl::make_attack("NoAttack");
  const auto result = trainer.run(*attack, fl::make_aggregator("Mean"),
                                  [&](const fl::RoundObservation& obs) {
                                    participants.push_back(obs.participants);
                                    rejects.push_back(obs.decode_rejects);
                                  });
  ASSERT_EQ(participants.size(), cfg.rounds);
  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    EXPECT_EQ(rejects[r], 1u) << r;
    EXPECT_EQ(participants[r], 9u) << r;  // 10 sampled, 1 rejected
  }
  EXPECT_EQ(result.decode_rejects, cfg.rounds);
  // The rejected uplink was still sent: 10 clients' bytes are billed.
  EXPECT_EQ(result.uplink_dense_bytes % (cfg.rounds * 10), 0u);
}

TEST(CommTrainer, AllHonestUplinksRejectedSkipsTheRound) {
  const auto data = comm_data();
  fl::TrainerConfig cfg = comm_config();
  cfg.rounds = 3;
  cfg.compression = spec_of(CodecKind::kSign1);
  cfg.uplink_tamper = [](std::size_t, std::vector<std::uint8_t>& buf) {
    buf.resize(buf.size() / 2);  // truncate every uplink
  };
  std::vector<fl::RoundObservation> seen;
  fl::Trainer trainer(data, comm_model(), cfg);
  auto attack = fl::make_attack("NoAttack");
  const auto result = trainer.run(*attack, fl::make_aggregator("Mean"),
                                  [&](const fl::RoundObservation& obs) {
                                    seen.push_back(obs);
                                  });
  ASSERT_EQ(seen.size(), cfg.rounds);
  // Only the benign uplinks were spent (Byzantine rows are never
  // transported once the round has no honest survivor): 8 per round.
  const std::uint64_t d = comm_model()(0).parameter_count();
  const std::uint64_t wire = comm::encoded_size(
      *comm::make_codec(cfg.compression), d);
  for (const fl::RoundObservation& obs : seen) {
    EXPECT_TRUE(obs.skipped);
    EXPECT_EQ(obs.outcome, fl::RoundOutcome::kSkippedNoHonest);
    EXPECT_EQ(obs.participants, 0u);
    EXPECT_EQ(obs.decode_rejects, 8u);
    EXPECT_EQ(obs.uplink_bytes, 8 * wire);
    EXPECT_EQ(obs.uplink_dense_bytes, 8 * d * 4);
    EXPECT_EQ(obs.uplink_decoded_bytes, 0u);
    EXPECT_TRUE(obs.aggregate.empty());
  }
  EXPECT_EQ(result.skipped_rounds, cfg.rounds);
  EXPECT_EQ(result.decode_rejects, cfg.rounds * 8);
  EXPECT_EQ(result.uplink_bytes, cfg.rounds * 8 * wire);
  EXPECT_EQ(result.uplink_dense_bytes, cfg.rounds * 8 * d * 4);
}

TEST(CommTrainer, DegenerateCompressionSpecThrowsAtConstruction) {
  const auto data = comm_data();
  fl::TrainerConfig cfg = comm_config();
  cfg.compression = spec_of(CodecKind::kTopK, 4096, 0.0);
  EXPECT_THROW(fl::Trainer(data, comm_model(), cfg), std::invalid_argument);
  cfg.compression = spec_of(CodecKind::kSign1, 0);
  EXPECT_THROW(fl::Trainer(data, comm_model(), cfg), std::invalid_argument);
}

// The compressed-domain contract, end to end: a full SignFlip or ByzMean
// × SignGuard training run on the wire path is bit-identical — per-round
// aggregates, accuracy, admission statistics — to the same rule on the
// decode-everything path, for every codec and thread count, while
// materializing strictly fewer dense bytes on the server.
TEST(CommTrainer, WirePathMatchesDecodePathBitwise) {
  const auto data = comm_data();
  ThreadCountGuard tc_guard;
  for (const std::string attack : {"SignFlip", "ByzMean"}) {
    for (const auto kind :
         {CodecKind::kSign1, CodecKind::kInt8, CodecKind::kTopK}) {
      fl::TrainerConfig cfg = comm_config();
      cfg.compression = spec_of(kind, 256, 0.1);
      std::vector<std::uint64_t> first_trace;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        common::set_thread_count(threads);
        fl::TrainingResult r_wire;
        const auto t_wire = run_trace(data, cfg, &r_wire, attack, true);
        fl::TrainingResult r_decode;
        const auto t_decode = run_trace(data, cfg, &r_decode, attack, false);

        const std::string name = attack + " " + comm::codec_name(kind);
        EXPECT_EQ(t_wire, t_decode) << name << " threads=" << threads;
        EXPECT_EQ(r_wire.final_accuracy, r_decode.final_accuracy) << name;
        EXPECT_EQ(r_wire.selection.honest_rate,
                  r_decode.selection.honest_rate)
            << name;
        EXPECT_EQ(r_wire.selection.malicious_rate,
                  r_decode.selection.malicious_rate)
            << name;
        // Same wire traffic in, far fewer dense bytes out of the decoder:
        // SignGuard rejects the attack rows before they are ever floats.
        EXPECT_EQ(r_wire.uplink_bytes, r_decode.uplink_bytes) << name;
        EXPECT_GT(r_wire.uplink_decoded_bytes, 0u) << name;
        EXPECT_LT(r_wire.uplink_decoded_bytes, r_decode.uplink_decoded_bytes)
            << name;
        // And the wire path is thread-count invariant on its own.
        if (first_trace.empty())
          first_trace = t_wire;
        else
          EXPECT_EQ(t_wire, first_trace) << name;
      }
    }
  }
}

TEST(CommTrainer, WirePathBillsOnlyTheTrustedSetsBytes) {
  const auto data = comm_data();
  fl::TrainerConfig cfg = comm_config();
  cfg.compression = spec_of(CodecKind::kSign1);
  for (const bool wire : {true, false}) {
    fl::Trainer trainer(data, comm_model(), cfg);
    auto attack = fl::make_attack("SignFlip");
    std::uint64_t billed = 0;
    const auto result = trainer.run(
        *attack, signguard_on(wire),
        [&](const fl::RoundObservation& obs) {
          ASSERT_FALSE(obs.skipped);
          const std::uint64_t rows =
              wire ? obs.selected.size() : obs.participants;
          EXPECT_EQ(obs.uplink_decoded_bytes,
                    rows * std::uint64_t(obs.aggregate.size()) * 4);
          EXPECT_LE(obs.selected.size(), obs.participants);
          billed += obs.uplink_decoded_bytes;
        });
    EXPECT_EQ(result.uplink_decoded_bytes, billed);
    EXPECT_GT(result.uplink_decoded_bytes, 0u);
  }
}

TEST(CommTrainer, NonSignGuardGarsStayOnTheDecodePath) {
  // Mean has no filtering stage to run on wire statistics; with a codec
  // active it still decodes (and bills) every accepted uplink.
  const auto data = comm_data();
  fl::TrainerConfig cfg = comm_config();
  cfg.compression = spec_of(CodecKind::kSign1);
  fl::Trainer trainer(data, comm_model(), cfg);
  auto attack = fl::make_attack("NoAttack");
  trainer.run(*attack, fl::make_aggregator("Mean"),
              [&](const fl::RoundObservation& obs) {
                EXPECT_EQ(obs.uplink_decoded_bytes,
                          std::uint64_t(obs.participants) *
                              obs.aggregate.size() * 4);
              });
}

// ---- sweep integration -----------------------------------------------------

fl::ScenarioSpec sweep_cell(const std::string& codec) {
  fl::ScenarioSpec s;
  s.attack = "ByzMean";
  s.gar = "SignGuard";
  s.codec = codec;
  s.rounds = 4;
  s.n_clients = 10;
  return s;
}

TEST(CommSweep, CompressionAxisFlowsIntoJsonl) {
  std::ostringstream os;
  fl::SweepOptions opts;
  opts.scale = fl::Scale::kSmoke;
  opts.jsonl = &os;
  const auto results =
      fl::run_sweep({sweep_cell("none"), sweep_cell("sign1")}, opts);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) ASSERT_TRUE(r.error.empty()) << r.error;

  // Canonical order puts the codec=sign1 id first ("/codec=..." sorts
  // before "/r=...").
  const auto& compressed = results[0];
  const auto& dense = results[1];
  ASSERT_EQ(compressed.spec.codec, "sign1");
  ASSERT_EQ(dense.spec.codec, "none");
  EXPECT_EQ(dense.uplink_bytes, 0u);
  EXPECT_GT(compressed.uplink_bytes, 0u);
  // The JSONL's compression_ratio: dense/sent as a float32.
  const float ratio = static_cast<float>(
      double(compressed.uplink_dense_bytes) / double(compressed.uplink_bytes));
  EXPECT_GE(ratio, 16.0f);
  EXPECT_EQ(dense.uplink_decoded_bytes, 0u);
  EXPECT_GT(compressed.uplink_decoded_bytes, 0u);

  // SignGuard's sign statistics survive sign1 exactly: honest admission
  // is unchanged against the uncompressed run, and compression never
  // helps the attacker past the filter.
  EXPECT_EQ(compressed.honest_pass_rate, dense.honest_pass_rate);
  EXPECT_LE(compressed.malicious_pass_rate, dense.malicious_pass_rate);

  // The JSONL carries the bandwidth fields only on the compressed line,
  // and the %.9g float parses back bit-exactly.
  std::istringstream lines(os.str());
  std::string line;
  std::size_t with_fields = 0;
  while (std::getline(lines, line)) {
    const auto pos = line.find("\"compression_ratio\":");
    if (pos == std::string::npos) {
      EXPECT_NE(line.find("/g=SignGuard/part=iid"), std::string::npos);
      // The decoded-bytes field rides only on codec lines: "none" lines
      // keep their golden byte-for-byte shape.
      EXPECT_EQ(line.find("uplink_decoded_bytes"), std::string::npos);
      continue;
    }
    ++with_fields;
    const char* p = line.c_str() + pos + std::strlen("\"compression_ratio\":");
    char* end = nullptr;
    const float parsed = std::strtof(p, &end);
    ASSERT_NE(end, p);
    EXPECT_EQ(parsed, ratio);  // bit-exact
    EXPECT_NE(line.find("\"uplink_bytes\":" +
                        std::to_string(compressed.uplink_bytes)),
              std::string::npos);
    EXPECT_NE(line.find("\"uplink_dense_bytes\":" +
                        std::to_string(compressed.uplink_dense_bytes)),
              std::string::npos);
    EXPECT_NE(line.find("\"decode_rejects\":0"), std::string::npos);
    EXPECT_NE(line.find("\"uplink_decoded_bytes\":" +
                        std::to_string(compressed.uplink_decoded_bytes)),
              std::string::npos);
  }
  EXPECT_EQ(with_fields, 1u);
}

TEST(CommSweep, UnknownCodecIsAPerScenarioError) {
  fl::SweepOptions opts;
  opts.scale = fl::Scale::kSmoke;
  const auto results = fl::run_sweep({sweep_cell("gzip")}, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].error.find("unknown codec"), std::string::npos)
      << results[0].error;
}

TEST(CommSweep, GridExpandsCodecAxis) {
  fl::SweepGrid grid;
  grid.gars = {"Mean", "SignGuard"};
  grid.codecs = {"none", "sign1", "topk"};
  grid.codec_chunk = 1024;
  grid.codec_k = 0.1;
  EXPECT_EQ(grid.size(), 6u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 6u);
  std::size_t with_codec = 0;
  for (const auto& s : specs) {
    EXPECT_EQ(s.codec_chunk, 1024u);
    if (s.codec != "none") {
      ++with_codec;
      EXPECT_NE(s.id().find("/codec=" + s.codec + "/ck=1024"),
                std::string::npos);
      if (s.codec == "topk")
        EXPECT_NE(s.id().find("/k=0.1"), std::string::npos);
    } else {
      // "none" ids keep their pre-transport form — the golden contract.
      EXPECT_EQ(s.id().find("codec"), std::string::npos);
    }
  }
  EXPECT_EQ(with_codec, 4u);
}

TEST(CommFormat, G9FloatFormattingRoundTripsBitExactly) {
  Rng rng(37);
  std::size_t checked = 0;
  while (checked < 20000) {
    const std::uint32_t bits = static_cast<std::uint32_t>(
        common::splitmix64(checked * 977u + rng.engine()() % 1000));
    float v;
    std::memcpy(&v, &bits, 4);
    if (!std::isfinite(v)) {
      ++checked;
      continue;
    }
    const std::string s = common::fmt_float(v);
    char* end = nullptr;
    const float parsed = std::strtof(s.c_str(), &end);
    ASSERT_EQ(*end, '\0') << s;
    ASSERT_EQ(std::memcmp(&parsed, &v, 4), 0)
        << s << " reparsed as " << parsed;
    ++checked;
  }
}

}  // namespace
}  // namespace signguard
