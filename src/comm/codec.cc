#include "comm/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace signguard::comm {

namespace {

// Byte-level primitives. Multi-byte integers are explicit little-endian;
// float32 payloads are memcpy'd (the repo's golden traces already assume
// a little-endian host for their bit-level checksums).
inline void put_f32(std::uint8_t* p, float v) { std::memcpy(p, &v, 4); }
inline float get_f32(const std::uint8_t* p) {
  float v;
  std::memcpy(&v, p, 4);
  return v;
}
inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

// A finite float whose sign bit is clear: the canonical form of every
// stored per-chunk scale/anchor (mean |x| or max |x|). Anything else is
// a payload no legitimate encoder produces.
inline bool valid_scale(float s) {
  return std::isfinite(s) && !std::signbit(s);
}

// Advances acc.size() (1..kChainWidth) double chains over len terms in
// one coordinate-outer pass: chain r adds term(r, j) for j = 0, 1, ...,
// len - 1 in order, exactly as a one-chain loop would. The inner loop
// always runs kChainWidth lanes, so it has a fixed shape for any run;
// term(r, j) must be defined for every lane, and lanes past acc.size()
// are dropped. Two coordinates per iteration let the compiler load and
// widen each lane's pair of floats at once (on a Xeon host the sign1
// scale chains ran ~1.5x faster than one coordinate per iteration).
template <class Term>
inline void advance_chains(std::span<double> acc, std::size_t len,
                           Term term) {
  double a[kChainWidth] = {};
  for (std::size_t r = 0; r < acc.size(); ++r) a[r] = acc[r];
  std::size_t j = 0;
  for (; j + 2 <= len; j += 2) {
    for (std::size_t r = 0; r < kChainWidth; ++r) a[r] += term(r, j);
    for (std::size_t r = 0; r < kChainWidth; ++r) a[r] += term(r, j + 1);
  }
  for (; j < len; ++j)
    for (std::size_t r = 0; r < kChainWidth; ++r) a[r] += term(r, j);
  for (std::size_t r = 0; r < acc.size(); ++r) acc[r] = a[r];
}

// A run's payloads padded to kChainWidth lanes by repeating the first,
// so advance_chains can read every lane.
inline std::array<const std::uint8_t*, kChainWidth> lanes(
    std::span<const std::uint8_t* const> payloads) {
  std::array<const std::uint8_t*, kChainWidth> p;
  for (std::size_t r = 0; r < kChainWidth; ++r)
    p[r] = payloads[r < payloads.size() ? r : 0];
  return p;
}

// Encodes a run chunk by chunk through a one-chunk encoder.
template <class EncodeOne>
inline void encode_each(std::span<const float> in,
                        std::span<std::uint8_t* const> payloads,
                        EncodeOne encode_one) {
  const std::size_t len = in.size() / payloads.size();
  for (std::size_t i = 0; i < payloads.size(); ++i)
    encode_one(in.subspan(i * len, len), payloads[i]);
}

// ---- none: the identity transport ----------------------------------------

class NoneCodec final : public Codec {
 public:
  using Codec::Codec;
  CodecKind kind() const override { return CodecKind::kNone; }

  std::size_t chunk_payload_size(std::size_t len) const override {
    return len * 4;
  }

  void encode_chunks(std::span<const float> in,
                     std::span<std::uint8_t* const> payloads,
                     CodecScratch&) const override {
    encode_each(in, payloads, [](std::span<const float> x, std::uint8_t* out) {
      std::memcpy(out, x.data(), x.size() * 4);
    });
  }

  bool decode_chunk(std::span<const std::uint8_t> in, std::size_t len,
                    float* out) const override {
    // Even the identity transport refuses to deliver non-finite
    // coordinates: an accepted uplink always decodes to finite rows.
    // Exponent-field scan with an OR-accumulator (no early exit) so the
    // loop vectorizes.
    std::uint32_t bad = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint32_t bits =
          std::bit_cast<std::uint32_t>(get_f32(in.data() + j * 4));
      bad |= static_cast<std::uint32_t>((bits & 0x7f800000u) == 0x7f800000u);
    }
    if (out != nullptr) std::memcpy(out, in.data(), len * 4);
    return bad == 0;
  }

  void chunk_norm2(std::span<const std::uint8_t* const> payloads,
                   std::size_t len, std::span<double> acc) const override {
    const auto p = lanes(payloads);
    advance_chains(acc, len, [&](std::size_t r, std::size_t j) {
      const double v = double(get_f32(p[r] + j * 4));
      return v * v;
    });
  }

  void chunk_sign_counts(std::span<const std::uint8_t> in, std::size_t,
                         const ChunkCoords& coords,
                         std::size_t counts[3]) const override {
    for (const std::uint32_t o : coords.offsets) {
      const float v = get_f32(in.data() + std::size_t{o} * 4);
      if (v > 0.0f)
        ++counts[0];
      else if (v < 0.0f)
        ++counts[2];
      else
        ++counts[1];
    }
  }
};

// ---- sign1: 1-bit signs + per-chunk mean-|x| scale ------------------------

class Sign1Codec final : public Codec {
 public:
  using Codec::Codec;
  CodecKind kind() const override { return CodecKind::kSign1; }

  std::size_t chunk_payload_size(std::size_t len) const override {
    return 4 + (len + 7) / 8;
  }

  void encode_chunks(std::span<const float> in,
                     std::span<std::uint8_t* const> payloads,
                     CodecScratch&) const override {
    const std::size_t k = payloads.size();
    const std::size_t len = in.size() / k;
    // A chunk's scale is one sequential double chain over its
    // coordinates: deterministic, and exact enough that re-encoding a
    // decoded chunk (len copies of ±scale) recovers the identical scale
    // — len * scale is exact in double for len <= kMaxChunk, and
    // (len * scale) / len is exactly scale. The run's chains advance
    // together, lane i over chunk i.
    std::array<const float*, kChainWidth> x;
    for (std::size_t r = 0; r < kChainWidth; ++r)
      x[r] = in.data() + (r < k ? r : 0) * len;
    std::array<double, kChainWidth> sum{};
    advance_chains(std::span<double>(sum.data(), k), len,
                   [&](std::size_t r, std::size_t j) {
                     return std::fabs(x[r][j]);
                   });
    for (std::size_t i = 0; i < k; ++i) {
      // A chunk holding a NaN sums to NaN, but which payload an add of
      // two NaNs keeps depends on the compiler's operand order. The scale
      // takes the first NaN coordinate's, as a one-chain loop that keeps
      // its running sum as the first operand does.
      const double s = std::isnan(sum[i]) ? first_nan(x[i], len) : sum[i];
      const float scale = len > 0 ? static_cast<float>(s / double(len)) : 0.0f;
      put_f32(payloads[i], scale);
      harvest_signs(x[i], len, payloads[i] + 4);
    }
  }

  // |x[j]| in double of the first NaN coordinate; the chunk has one.
  static double first_nan(const float* x, std::size_t len) {
    std::size_t j = 0;
    while (j + 1 < len && !std::isnan(x[j])) ++j;
    return std::fabs(x[j]);
  }

  // Sign bytes of one chunk: bit j of byte j / 8 is !signbit(x[j]).
  static void harvest_signs(const float* x, std::size_t len,
                            std::uint8_t* bits) {
    // Branchless sign harvest (the signs of a gradient row are
    // effectively random, so a per-coordinate branch would mispredict
    // half the time): bit = !signbit, straight from the float's bits.
    // Full bytes run a fixed 8-wide body the compiler can unroll and
    // vectorize; only the tail byte has a runtime bound.
    const auto sign_byte = [](const float* v, std::size_t count) {
      std::uint8_t byte = 0;
      for (std::size_t j = 0; j < count; ++j)
        byte |= static_cast<std::uint8_t>(
            (~(std::bit_cast<std::uint32_t>(v[j]) >> 31) & 1u) << j);
      return byte;
    };
    const std::size_t full = len / 8;
    for (std::size_t b = 0; b < full; ++b) bits[b] = sign_byte(x + b * 8, 8);
    if (len % 8 != 0)  // unused tail bits stay zero
      bits[full] = sign_byte(x + full * 8, len % 8);
  }

  bool decode_chunk(std::span<const std::uint8_t> in, std::size_t len,
                    float* out) const override {
    const float scale = get_f32(in.data());
    if (!valid_scale(scale)) return false;
    if (out == nullptr) return true;
    const std::uint8_t* bits = in.data() + 4;
    // Branchless two-entry select, eight coordinates per sign byte: the
    // wire-to-row hot path of the 1 GB/s single-thread decode guarantee.
    const float vals[2] = {-scale, scale};
    const std::size_t full = len & ~std::size_t{7};
    for (std::size_t j = 0; j < full; j += 8) {
      const std::uint8_t b = bits[j >> 3];
      out[j + 0] = vals[b & 1u];
      out[j + 1] = vals[(b >> 1) & 1u];
      out[j + 2] = vals[(b >> 2) & 1u];
      out[j + 3] = vals[(b >> 3) & 1u];
      out[j + 4] = vals[(b >> 4) & 1u];
      out[j + 5] = vals[(b >> 5) & 1u];
      out[j + 6] = vals[(b >> 6) & 1u];
      out[j + 7] = vals[(b >> 7) & 1u];
    }
    for (std::size_t j = full; j < len; ++j)
      out[j] = vals[(bits[j >> 3] >> (j & 7u)) & 1u];
    return true;
  }

  void chunk_norm2(std::span<const std::uint8_t* const> payloads,
                   std::size_t len, std::span<double> acc) const override {
    // Every decoded coordinate is ±scale and IEEE multiplication gives
    // (-s)*(-s) the identical bits as s*s, so a row's decode-path chain
    // `acc += double(out[j]) * double(out[j])` degenerates to len
    // additions of one precomputed square. Zero payload-byte traffic:
    // a chunk's norm contribution comes from its 4 scale bytes.
    const auto p = lanes(payloads);
    double q[kChainWidth];
    for (std::size_t r = 0; r < kChainWidth; ++r) {
      const double s = double(get_f32(p[r]));
      q[r] = s * s;
    }
    advance_chains(acc, len, [&](std::size_t r, std::size_t) { return q[r]; });
  }

  void chunk_sign_counts(std::span<const std::uint8_t> in, std::size_t len,
                         const ChunkCoords& coords,
                         std::size_t counts[3]) const override {
    const std::size_t m = coords.offsets.size();
    const float scale = get_f32(in.data());
    if (!(scale > 0.0f)) {
      // valid_scale leaves exactly one non-positive scale: +0.0, which
      // decodes every coordinate to ±0.0f — all zeros to the census.
      counts[1] += m;
      return;
    }
    // Masked 64-bit popcount over the payload bits: bit 1 decodes to
    // +scale (positive), bit 0 to -scale (negative), so the sampled
    // positive count is popcount(payload & mask) and the rest of the
    // sample is negative. This is the wire path's hot loop — ~d/8 bytes
    // per chunk instead of 4d decoded plus the float gather.
    const std::uint8_t* bits = in.data() + 4;
    const std::uint8_t* mask = coords.mask.data();
    const std::size_t nbytes = (len + 7) / 8;
    std::size_t pos = 0;
    std::size_t i = 0;
    for (; i + 8 <= nbytes; i += 8) {
      std::uint64_t b, mk;
      std::memcpy(&b, bits + i, 8);
      std::memcpy(&mk, mask + i, 8);
      pos += static_cast<std::size_t>(std::popcount(b & mk));
    }
    for (; i < nbytes; ++i)
      pos += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(bits[i] & mask[i])));
    counts[0] += pos;
    counts[2] += m - pos;
  }
};

// ---- int8: symmetric quantization on a power-of-two grid ------------------
//
// q = round-half-even(x * 2^-e), q in [-127, 127], decode = q * 2^e,
// with e chosen so max|x| lands in [64, 128) steps. A power-of-two step
// makes every decode EXACT float arithmetic (q has 7 bits; ldexp by a
// clamped exponent neither overflows nor loses denormal bits), which is
// what buys the transport contract its idempotence: re-encoding a
// decoded chunk re-derives the same exponent (q_max in [64, 127] pins
// frexp right back to e) and recovers every code exactly. An arbitrary
// scale max|x|/127 — let alone an affine offset — cannot make that
// round-trip bitwise once the scale's own rounding error grows (deep
// denormal chunks), so this codec trades at most one bit of resolution
// for a provable projection.

inline constexpr int kInt8MinExp = -149;  // 2^-149 = smallest denormal step
// Largest step a legitimate encoder can derive (maxabs < 2^128 gives
// e = E - 7 <= 121) — and the largest whose decode stays finite:
// 127 * 2^121 < FLT_MAX < 127 * 2^122.
inline constexpr int kInt8MaxExp = 121;

class Int8Codec final : public Codec {
 public:
  using Codec::Codec;
  CodecKind kind() const override { return CodecKind::kInt8; }

  std::size_t chunk_payload_size(std::size_t len) const override {
    return 2 + len;
  }

  void encode_chunks(std::span<const float> in,
                     std::span<std::uint8_t* const> payloads,
                     CodecScratch&) const override {
    encode_each(in, payloads, encode_one);
  }

  static void encode_one(std::span<const float> in, std::uint8_t* out) {
    float maxabs = 0.0f;
    for (const float v : in) maxabs = std::max(maxabs, std::fabs(v));
    int e = 0;
    if (!std::isfinite(maxabs)) {
      // A Byzantine-crafted row can carry ±inf/NaN; frexp's exponent is
      // unspecified for those, so pin the step deterministically (the
      // codes still clamp to ±127 and decode stays well-defined).
      e = kInt8MaxExp;
    } else if (maxabs > 0.0f) {
      int exp = 0;
      std::frexp(maxabs, &exp);  // maxabs = m * 2^exp, m in [0.5, 1)
      e = std::max(exp - 7, kInt8MinExp);
    }
    put_u16(out, static_cast<std::uint16_t>(static_cast<std::int16_t>(e)));
    std::uint8_t* codes = out + 2;
    // Hot path: x * 2^-e is one exact multiply whenever 2^-e is a normal
    // float (a power of two times a float is correctly rounded exactly
    // like ldexp). Only deep-denormal chunks (e < -126) take the ldexp
    // fallback. Default rounding mode (FE_TONEAREST) = round half to
    // even; nothing in this codebase ever changes it.
    if (e >= -126 && e <= 126) {
      const float inv_step = std::ldexp(1.0f, -e);
      for (std::size_t j = 0; j < in.size(); ++j) {
        float r = std::nearbyint(in[j] * inv_step);
        r = std::min(127.0f, std::max(-127.0f, r));
        codes[j] = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(static_cast<int>(r)));
      }
    } else {
      for (std::size_t j = 0; j < in.size(); ++j) {
        float r = std::nearbyint(std::ldexp(in[j], -e));
        r = std::min(127.0f, std::max(-127.0f, r));
        codes[j] = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(static_cast<int>(r)));
      }
    }
  }

  bool decode_chunk(std::span<const std::uint8_t> in, std::size_t len,
                    float* out) const override {
    const int e = static_cast<std::int16_t>(get_u16(in.data()));
    if (e < kInt8MinExp || e > kInt8MaxExp) return false;
    const std::uint8_t* codes = in.data() + 2;
    // One exact ldexp per possible code byte, then the chunk is a pure
    // table gather; the 0x80 sentinel (-128, unreachable by encode) is
    // flagged with an OR-accumulator so the loop stays branchless. A
    // check-only call builds no table and gathers nothing.
    float table[256];
    if (out != nullptr)
      for (int b = 0; b < 256; ++b)
        table[b] = std::ldexp(
            static_cast<float>(static_cast<std::int8_t>(b)), e);  // exact
    std::uint32_t bad = 0;
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint8_t c = codes[j];
      bad |= static_cast<std::uint32_t>(c == 0x80u);
      if (out != nullptr) out[j] = table[c];
    }
    return bad == 0;
  }

  void chunk_norm2(std::span<const std::uint8_t* const> payloads,
                   std::size_t len, std::span<double> acc) const override {
    // Squared decode table per row in double: q2[r][c] is bitwise
    // double(table_f32[c]) * double(table_f32[c]), the exact term row r's
    // decode-path norm chain adds for code c. The chunk then costs one
    // table gather per byte instead of a float materialization.
    double q2[kChainWidth][256];
    std::array<const double*, kChainWidth> tab;
    for (std::size_t r = 0; r < kChainWidth; ++r) {
      tab[r] = q2[r < payloads.size() ? r : 0];
      if (r >= payloads.size()) continue;
      const int e = static_cast<std::int16_t>(get_u16(payloads[r]));
      for (int b = 0; b < 256; ++b) {
        const float f =
            std::ldexp(static_cast<float>(static_cast<std::int8_t>(b)), e);
        const double d = double(f);
        q2[r][b] = d * d;
      }
    }
    const auto p = lanes(payloads);
    advance_chains(acc, len, [&](std::size_t r, std::size_t j) {
      return tab[r][p[r][2 + j]];
    });
  }

  void chunk_sign_counts(std::span<const std::uint8_t> in, std::size_t,
                         const ChunkCoords& coords,
                         std::size_t counts[3]) const override {
    // Exact ldexp by a legal exponent never flushes a nonzero code to
    // zero (e >= -149 keeps even ±2^-149 representable), so the decoded
    // sign IS the code's sign.
    const std::uint8_t* codes = in.data() + 2;
    for (const std::uint32_t o : coords.offsets) {
      const auto c = static_cast<std::int8_t>(codes[o]);
      if (c > 0)
        ++counts[0];
      else if (c < 0)
        ++counts[2];
      else
        ++counts[1];
    }
  }
};

// ---- topk: magnitude sparsification, exact values + u16 index deltas ------

class TopKCodec final : public Codec {
 public:
  TopKCodec(std::size_t chunk, double k_fraction)
      : Codec(chunk), k_fraction_(k_fraction) {}
  CodecKind kind() const override { return CodecKind::kTopK; }

  // Kept entries for a chunk of `len`: round(k_fraction * len), at least
  // one, never more than the chunk — and never more than the u16 count
  // field can carry (relevant only for the one legal shape chunk == 65536
  // with k_fraction ~ 1). Data-independent, so chunk sizes — and with
  // them every wire offset — are known before touching floats.
  std::size_t keep_count(std::size_t len) const {
    return topk_keep_count(k_fraction_, len);
  }

  std::size_t chunk_payload_size(std::size_t len) const override {
    return 2 + keep_count(len) * 6;
  }

  void encode_chunks(std::span<const float> in,
                     std::span<std::uint8_t* const> payloads,
                     CodecScratch& scratch) const override {
    encode_each(in, payloads, [&](std::span<const float> x, std::uint8_t* out) {
      encode_one(x, out, scratch);
    });
  }

  void encode_one(std::span<const float> in, std::uint8_t* out,
                  CodecScratch& scratch) const {
    const std::size_t len = in.size();
    const std::size_t k = keep_count(len);
    auto& order = scratch.order;
    order.resize(len);
    for (std::size_t j = 0; j < len; ++j)
      order[j] = static_cast<std::uint32_t>(j);
    if (k < len) {
      // Total order (|v| desc, then v desc, then index asc): the
      // selected *set* is implementation-independent, and re-sorting by
      // index below makes the emitted bytes so too. Magnitude compares
      // on the absolute bit pattern — identical to |v| ordering for
      // every non-NaN float (IEEE magnitudes are bit-monotone) but also
      // total for NaN (a float NaN comparator breaks nth_element's
      // strict-weak-ordering precondition, and Byzantine-crafted rows
      // reach this path unvalidated; NaNs sort first, get stored, and
      // the decoder then rejects the uplink).
      const auto cmp = [&in](std::uint32_t a, std::uint32_t b) {
        const std::uint32_t ma =
            std::bit_cast<std::uint32_t>(in[a]) & 0x7fffffffu;
        const std::uint32_t mb =
            std::bit_cast<std::uint32_t>(in[b]) & 0x7fffffffu;
        if (ma != mb) return ma > mb;
        // Equal magnitude bits: ±x (x != 0) orders positive-first; ±0
        // stays *equivalent* (index decides — signed-zero idempotence
        // depends on it) and so does a same-payload NaN pair, whose
        // float compares would otherwise skip the index tie-break.
        if (ma <= 0x7f800000u && in[a] != in[b]) return in[a] > in[b];
        return a < b;
      };
      std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                       cmp);
    }
    std::sort(order.begin(), order.begin() + k);
    put_u16(out, static_cast<std::uint16_t>(k));
    std::uint8_t* values = out + 2;
    std::uint8_t* deltas = out + 2 + k * 4;
    std::uint32_t prev = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint32_t idx = order[j];
      put_f32(values + j * 4, in[idx]);
      put_u16(deltas + j * 2, static_cast<std::uint16_t>(idx - prev));
      prev = idx;
    }
  }

  bool decode_chunk(std::span<const std::uint8_t> in, std::size_t len,
                    float* out) const override {
    const std::size_t k = keep_count(len);
    if (get_u16(in.data()) != k) return false;
    if (out != nullptr) std::fill_n(out, len, 0.0f);
    const std::uint8_t* values = in.data() + 2;
    const std::uint8_t* deltas = in.data() + 2 + k * 4;
    std::size_t idx = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t step = get_u16(deltas + j * 2);
      // First index is its delta from 0; every later delta must advance
      // (strictly increasing indices) and stay inside the chunk.
      if (j > 0 && step == 0) return false;
      idx += step;
      if (idx >= len) return false;
      const float v = get_f32(values + j * 4);
      if (!std::isfinite(v)) return false;
      if (out != nullptr) out[idx] = v;
    }
    return true;
  }

  void chunk_norm2(std::span<const std::uint8_t* const> payloads,
                   std::size_t len, std::span<double> acc) const override {
    // The decoded chunk is zero everywhere but the k stored entries, and
    // a +0.0 addend never changes the accumulation chain: acc starts at
    // +0.0 and only ever gains non-negative squares, so it is never -0.0
    // and x + 0.0 == x bitwise. Dropping the zero terms and walking the
    // stored values in index order therefore reproduces the full-chunk
    // chain exactly. Every row stores the same k.
    const auto p = lanes(payloads);
    advance_chains(acc, keep_count(len), [&](std::size_t r, std::size_t j) {
      const double v = double(get_f32(p[r] + 2 + j * 4));
      return v * v;
    });
  }

  void chunk_sign_counts(std::span<const std::uint8_t> in, std::size_t len,
                         const ChunkCoords& coords,
                         std::size_t counts[3]) const override {
    // Two-pointer merge of the sampled offsets (ascending by the
    // ChunkCoords contract) with the stored indices (strictly ascending
    // by the wire contract): a sampled coordinate that is not stored
    // decoded to 0.0f.
    const std::size_t k = keep_count(len);
    const std::uint8_t* values = in.data() + 2;
    const std::uint8_t* deltas = in.data() + 2 + k * 4;
    const auto& offs = coords.offsets;
    std::size_t oi = 0;
    std::size_t idx = 0;
    for (std::size_t j = 0; j < k && oi < offs.size(); ++j) {
      idx += get_u16(deltas + j * 2);
      while (oi < offs.size() && offs[oi] < idx) {
        ++counts[1];
        ++oi;
      }
      if (oi < offs.size() && offs[oi] == idx) {
        const float v = get_f32(values + j * 4);
        if (v > 0.0f)
          ++counts[0];
        else if (v < 0.0f)
          ++counts[2];
        else
          ++counts[1];
        ++oi;
      }
    }
    counts[1] += offs.size() - oi;
  }

 private:
  double k_fraction_;
};

}  // namespace

std::size_t topk_keep_count(double k_fraction, std::size_t len) {
  if (len == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::nearbyint(k_fraction * static_cast<double>(len)));
  return std::min({len, std::max<std::size_t>(1, k), std::size_t{0xffff}});
}

const char* Codec::name() const { return codec_name(kind()); }

const char* codec_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kNone:
      return "none";
    case CodecKind::kSign1:
      return "sign1";
    case CodecKind::kInt8:
      return "int8";
    case CodecKind::kTopK:
      return "topk";
  }
  return "unknown";
}

CodecKind codec_kind_from_name(const std::string& name) {
  if (name == "none") return CodecKind::kNone;
  if (name == "sign1") return CodecKind::kSign1;
  if (name == "int8") return CodecKind::kInt8;
  if (name == "topk") return CodecKind::kTopK;
  throw std::invalid_argument("unknown codec '" + name +
                              "' (known: none, sign1, int8, topk)");
}

std::unique_ptr<Codec> make_codec(const CompressionSpec& spec) {
  if (spec.chunk == 0 || spec.chunk > kMaxChunk)
    throw std::invalid_argument(
        "CompressionSpec: chunk must be in [1, " +
        std::to_string(kMaxChunk) + "], got " + std::to_string(spec.chunk));
  switch (spec.codec) {
    case CodecKind::kNone:
      return std::make_unique<NoneCodec>(spec.chunk);
    case CodecKind::kSign1:
      return std::make_unique<Sign1Codec>(spec.chunk);
    case CodecKind::kInt8:
      return std::make_unique<Int8Codec>(spec.chunk);
    case CodecKind::kTopK:
      if (!(spec.k_fraction > 0.0 && spec.k_fraction <= 1.0))
        throw std::invalid_argument(
            "CompressionSpec: topk k_fraction must be in (0, 1]");
      return std::make_unique<TopKCodec>(spec.chunk, spec.k_fraction);
  }
  throw std::invalid_argument("CompressionSpec: unknown codec id " +
                              std::to_string(int(spec.codec)));
}

}  // namespace signguard::comm
