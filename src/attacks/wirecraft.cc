#include "attacks/wirecraft.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace signguard::attacks {

namespace {

// Per-chunk crafting amplitude: inflate * mean|x| over the chunk in the
// encoder's own sequential-double order, snapped to float. Falls back to
// 1.0 when the chunk carries no usable magnitude — the crafted chunk
// must never be all-zero (it would vanish under top-k) or non-finite
// (the wire would reject it).
float craft_amplitude(std::span<const float> chunk, double inflate) {
  double acc = 0.0;
  for (const float v : chunk)
    if (std::isfinite(v)) acc += std::fabs(double(v));
  const double a = inflate * (acc / double(chunk.size()));
  const float af = float(a);
  if (!std::isfinite(af) || !(af > 0.0f)) return 1.0f;
  return af;
}

// Sign source: the inner attack's direction when it has one; NaNs still
// yield a finite output because copysign only reads the sign bit.
inline float signed_amp(float amp, float src) {
  return std::copysign(amp, src);
}

void craft_sign_chunk(std::span<const float> in, std::span<float> out,
                      double inflate) {
  // sign1 derives its scale as the sequential-double mean of |x|; a chunk
  // of identical magnitudes A recovers exactly A (len * A and the divide
  // are both exact in double for len <= 65536), so the decoded chunk is
  // bitwise +/-A — the inflated amplitude survives the codec untouched.
  const float a = craft_amplitude(in, inflate);
  for (std::size_t j = 0; j < in.size(); ++j) out[j] = signed_amp(a, in[j]);
}

void craft_int8_chunk(std::span<const float> in, std::span<float> out,
                      double inflate) {
  // Snap the amplitude onto the quantizer's grid edge: 127 * 2^e with e
  // chosen so 127 * 2^e is the power-of-two-step level nearest the
  // target. The encoder then derives the same e from frexp(max|x|)
  // (127 * 2^e = 0.9921875 * 2^(e+7), so exp - 7 == e) and every
  // coordinate rounds to code +/-127 — zero quantization loss at the
  // extreme level. e stays inside [-126, 120], well within the codec's
  // legal exponent range, so the encoder never clamps.
  const float target = craft_amplitude(in, inflate);
  int exp = 0;
  std::frexp(target, &exp);
  const int e = std::clamp(exp - 7, -126, 120);
  const float a = std::ldexp(127.0f, e);
  for (std::size_t j = 0; j < in.size(); ++j) out[j] = signed_amp(a, in[j]);
}

void craft_topk_chunk(std::span<const float> in, std::span<float> out,
                      double inflate, double k_fraction) {
  // Exactly k spikes at the head of the chunk, everything else exactly
  // +0.0f: the sparsifier's top-k by magnitude is precisely the spike
  // set, the stored u16 index deltas are minimal (0, 1, 1, ...), and the
  // decoder's zero-fill reproduces the +0.0f tail bitwise.
  const std::size_t k = comm::topk_keep_count(k_fraction, in.size());
  const float a = craft_amplitude(in, inflate);
  for (std::size_t j = 0; j < in.size(); ++j)
    out[j] = j < k ? signed_amp(a, in[j]) : 0.0f;
}

}  // namespace

std::vector<float> wirecraft_row(const comm::CompressionSpec& spec,
                                 GradientView inner, double inflate) {
  std::vector<float> out(inner.size());
  const std::size_t chunk = spec.chunk;
  for (std::size_t start = 0; start < inner.size(); start += chunk) {
    const std::size_t len = std::min(chunk, inner.size() - start);
    const std::span<const float> in = inner.subspan(start, len);
    const std::span<float> dst(out.data() + start, len);
    switch (spec.codec) {
      case comm::CodecKind::kNone:
      case comm::CodecKind::kSign1:
        craft_sign_chunk(in, dst, inflate);
        break;
      case comm::CodecKind::kInt8:
        craft_int8_chunk(in, dst, inflate);
        break;
      case comm::CodecKind::kTopK:
        craft_topk_chunk(in, dst, inflate, spec.k_fraction);
        break;
    }
  }
  return out;
}

WirecraftAttack::WirecraftAttack(std::unique_ptr<Attack> inner,
                                 comm::CompressionSpec spec, double inflate)
    : inner_(std::move(inner)), spec_(spec), inflate_(inflate) {
  if (!inner_)
    throw std::invalid_argument("WirecraftAttack: inner attack is null");
  if (!(inflate_ > 0.0) || !std::isfinite(inflate_))
    throw std::invalid_argument(
        "WirecraftAttack: inflate must be positive and finite");
  // Same spec contract as the transport; throws std::invalid_argument on
  // a degenerate chunk size or top-k fraction.
  (void)comm::make_codec(spec_);
}

void WirecraftAttack::begin_round(std::size_t round, Rng& rng) {
  inner_->begin_round(round, rng);
}

bool WirecraftAttack::flips_labels() const { return inner_->flips_labels(); }

std::string WirecraftAttack::name() const {
  return std::string("Wirecraft[") + comm::codec_name(spec_.codec) + "](" +
         inner_->name() + ")";
}

std::vector<std::vector<float>> WirecraftAttack::craft(
    const AttackContext& ctx) {
  std::vector<std::vector<float>> rows = inner_->craft(ctx);
  if (rows.size() != ctx.n_byzantine)
    throw std::logic_error("WirecraftAttack: inner attack returned " +
                           std::to_string(rows.size()) + " rows, expected " +
                           std::to_string(ctx.n_byzantine));
  for (std::vector<float>& row : rows)
    row = wirecraft_row(spec_, GradientView(row), inflate_);
  return rows;
}

void WirecraftAttack::observe_round(const RoundFeedback& fb) {
  inner_->observe_round(fb);
}

void WirecraftAttack::serialize_state(common::ByteWriter& w) const {
  common::ByteIo(w).blob(*inner_);
}

void WirecraftAttack::restore_state(common::ByteReader& r) {
  common::ByteIo(r).blob(*inner_);
}

}  // namespace signguard::attacks
