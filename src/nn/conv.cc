#include "nn/conv.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/clones.h"
#include "obs/metrics.h"

namespace signguard::nn {

namespace {

// One accumulator row of a register tile: eight floats of a GCC/Clang
// vector type, as in gemm.cc's micro-kernel (one ymm register in the
// AVX2 clone, two SSE registers in the baseline one).
constexpr std::size_t kLanes = 8;
typedef float Row __attribute__((vector_size(kLanes * sizeof(float))));

// The first n lanes of v to p, or added to p's values with `add`. n is
// below kLanes only for the last pixel vector of a row whose width is not
// a multiple of eight.
[[gnu::always_inline]] inline void store(float* p, const Row& v,
                                         std::size_t n, bool add) {
  if (n < kLanes) {
    for (std::size_t i = 0; i < n; ++i) p[i] = add ? p[i] + v[i] : v[i];
    return;
  }
  Row s = v;
  if (add) {
    std::memcpy(&s, p, sizeof(Row));
    s += v;
  }
  std::memcpy(p, &s, sizeof(Row));
}

// n floats of workspace scratch, zeroed.
float* take_zeroed(Workspace& ws, std::size_t n) {
  Tensor& t = ws.take({n});
  t.zero();
  return t.data();
}

// The 3x3 same-padding kernel reads a one-pixel zero border around each
// [H, W] channel. The kernels below read each sample from IC bordered
// (H+2) x (W+2) planes instead, whose border is that padding: tap (ky,
// kx) of output pixel (y, x) sits at bordered (y + ky, x + kx), so every
// tap read is in range and a padding tap reads a literal +0.0f. `maps`
// holds the planes plus kLanes floats of slack, zeroed once per call;
// each sample overwrites only the interiors. Rows are copied by plain
// loops: GCC turns std::copy into a memmove call per row, and on rows of
// 8-16 floats the call costs more than the copy.
void fill_maps(const float* x, std::size_t ch, std::size_t h, std::size_t w,
               float* maps) {
  const std::size_t pw = w + 2;
  for (std::size_t c = 0; c < ch; ++c, maps += (h + 2) * pw)
    for (std::size_t y = 0; y < h; ++y, x += w) {
      float* dst = maps + (y + 1) * pw + 1;
      for (std::size_t i = 0; i < w; ++i) dst[i] = x[i];
    }
}

// Forward tile: the `rows` output channels of one group against the n
// pixels of one output row. `in` is input channel 0's plane at the row's
// first pixel, so tap (c, ky, kx) of lane i is in[c * plane + ky * pw +
// kx + i]; the 8-float read of a short last vector stays in the slack.
// `wp` is the group's weights, kLanes per tap, taps ascending. Each
// output sums its IC*9 products in tap order from +0.0f, then adds its
// bias: the per-element sequence of W * cols plus a bias pass.
SIGNGUARD_AVX2_CLONES
void forward_tile(std::size_t ic, std::size_t plane, std::size_t pw,
                  const float* in, const float* wp, const float* bias,
                  float* y, std::size_t hw, std::size_t rows,
                  std::size_t n) {
  Row acc[kLanes] = {};
  for (std::size_t c = 0; c < ic; ++c, in += plane)
    for (std::size_t ky = 0; ky < 3; ++ky)
      for (std::size_t kx = 0; kx < 3; ++kx, wp += kLanes) {
        Row v;
        std::memcpy(&v, in + ky * pw + kx, sizeof(Row));
        for (std::size_t r = 0; r < kLanes; ++r) acc[r] += wp[r] * v;
      }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kLanes; ++r)
    if (r < rows) store(y + r * hw, acc[r] + bias[r], n, /*add=*/false);
}

// Weight-gradient tile: the 9 taps of one input channel (rows) against
// one group of output channels (lanes). `map` is the channel's plane,
// `gyp` the group's gy pack (kLanes values per pixel, pixels ascending)
// and gw points at gW[oc0][c * 9], row stride kk. Each element starts
// from its gW value and adds its products in pixel order, as the
// accumulating gy * cols^T did. A tenth row sums the pixels' gy the same
// way into the group's bias gradient gb, if given.
SIGNGUARD_AVX2_CLONES
void weight_grad_tile(const float* map, std::size_t pw, std::size_t h,
                      std::size_t w, const float* gyp, float* gw,
                      std::size_t kk, float* gb, std::size_t lanes) {
  float tile[10 * kLanes] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t t = 0; t < 9; ++t) tile[t * kLanes + l] = gw[l * kk + t];
    if (gb) tile[9 * kLanes + l] = gb[l];
  }
  Row acc[10];
#pragma GCC unroll 10
  for (std::size_t t = 0; t < 10; ++t)
    std::memcpy(&acc[t], tile + t * kLanes, sizeof(Row));
  for (std::size_t y = 0; y < h; ++y, map += pw)
    for (std::size_t x = 0; x < w; ++x, gyp += kLanes) {
      Row g;
      std::memcpy(&g, gyp, sizeof(Row));
      for (std::size_t ky = 0; ky < 3; ++ky)
        for (std::size_t kx = 0; kx < 3; ++kx)
          acc[ky * 3 + kx] += map[ky * pw + x + kx] * g;
      acc[9] += g;
    }
#pragma GCC unroll 10
  for (std::size_t t = 0; t < 10; ++t)
    std::memcpy(tile + t * kLanes, &acc[t], sizeof(Row));
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t t = 0; t < 9; ++t) gw[l * kk + t] = tile[t * kLanes + l];
    if (gb) gb[l] = tile[9 * kLanes + l];
  }
}

// Input-gradient tile: one tap's column gradient over `rows` output rows
// (at most 8) of the same n pixels, added into the bordered gx map. gy
// points at output channel 0's first pixel of a copy of gy with kLanes
// floats of slack, so a short vector's 8-float read stays in it; wk
// points at W[0][k] (stride kk) and dst at the map position the tile's
// first pixel sends tap k to. Each column gradient sums its OC products
// in channel order from +0.0f, as W^T * gy did; rows past `rows` repeat
// the last one and are not stored.
SIGNGUARD_AVX2_CLONES
void input_grad_tile(std::size_t oc, const float* wk, std::size_t kk,
                     const float* gy, std::size_t hw, std::size_t w,
                     float* dst, std::size_t pw, std::size_t rows,
                     std::size_t n) {
  std::size_t at[kLanes];
  for (std::size_t r = 0; r < kLanes; ++r) at[r] = std::min(r, rows - 1) * w;
  Row acc[kLanes] = {};
  for (std::size_t o = 0; o < oc; ++o, gy += hw) {
    const float wv = wk[o * kk];
    for (std::size_t r = 0; r < kLanes; ++r) {
      Row v;
      std::memcpy(&v, gy + at[r], sizeof(Row));
      acc[r] += wv * v;
    }
  }
  // store() gets a copy: bound to acc[r] itself, the tail path's lane
  // reads kept every row on the stack and conv2's backward ran ~9% slower.
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kLanes; ++r)
    if (r < rows) {
      const Row sum = acc[r];
      store(dst + r * pw, sum, n, /*add=*/true);
    }
}

}  // namespace

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      w_(out_channels * in_channels * kKernel * kKernel),
      b_(out_channels, 0.0f),
      gw_(w_.size(), 0.0f),
      gb_(out_channels, 0.0f) {
  // He-uniform: fan_in = IC * 3 * 3.
  const double fan_in = double(in_channels * kKernel * kKernel);
  const double bound = std::sqrt(6.0 / fan_in);
  for (auto& v : w_) v = static_cast<float>(rng.uniform(-bound, bound));
}

void Conv2d::forward(const Tensor& x, Tensor& y, Workspace& ws) {
  assert(x.ndim() == 4 && x.dim(1) == in_ch_);
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = h * w, kk = in_ch_ * kKernel * kKernel;
  const std::size_t pw = w + 2, plane = (h + 2) * pw;
  cached_input_ = &x;
  y.resize({batch, out_ch_, h, w});
  // Billed as the W * cols product per sample it replaces.
  obs::count(obs::Counter::kGemmFlops, 2 * batch * out_ch_ * hw * kk);
  float* maps = take_zeroed(ws, in_ch_ * plane + kLanes);
  // W pack: per group of kLanes output channels, tap-major, zero lanes
  // past OC.
  const std::size_t groups = (out_ch_ + kLanes - 1) / kLanes;
  float* wp = ws.take({groups * kk * kLanes}).data();
  for (std::size_t o = 0; o < groups * kLanes; ++o)
    for (std::size_t k = 0; k < kk; ++k)
      wp[(o / kLanes * kk + k) * kLanes + o % kLanes] =
          o < out_ch_ ? w_[o * kk + k] : 0.0f;
  for (std::size_t b = 0; b < batch; ++b) {
    fill_maps(x.data() + b * in_ch_ * hw, in_ch_, h, w, maps);
    for (std::size_t o0 = 0; o0 < out_ch_; o0 += kLanes)
      for (std::size_t yy = 0; yy < h; ++yy)
        for (std::size_t x0 = 0; x0 < w; x0 += kLanes)
          forward_tile(in_ch_, plane, pw, maps + yy * pw + x0,
                       wp + o0 * kk, b_.data() + o0,
                       y.data() + (b * out_ch_ + o0) * hw + yy * w + x0, hw,
                       std::min(kLanes, out_ch_ - o0),
                       std::min(kLanes, w - x0));
  }
}

void Conv2d::backward(const Tensor& grad_out, Tensor& grad_in,
                      Workspace& ws) {
  assert(cached_input_ != nullptr);
  grad_in.resize(cached_input_->shape());
  backward_into(grad_out, grad_in.data(), ws);
}

void Conv2d::backward_params_only(const Tensor& grad_out, Workspace& ws) {
  backward_into(grad_out, nullptr, ws);
}

void Conv2d::backward_into(const Tensor& grad_out, float* gx,
                           Workspace& ws) {
  assert(cached_input_ != nullptr);
  const Tensor& x = *cached_input_;
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = h * w, kk = in_ch_ * kKernel * kKernel;
  const std::size_t pw = w + 2, plane = (h + 2) * pw;
  assert(grad_out.dim(0) == batch && grad_out.dim(1) == out_ch_ &&
         grad_out.dim(2) == h && grad_out.dim(3) == w);
  // Billed as the gy * cols^T and W^T * gy products per sample.
  obs::count(obs::Counter::kGemmFlops,
             (gx ? 4 : 2) * batch * out_ch_ * hw * kk);
  // The samples add into gW and gb, which start at +0.0f.
  std::fill(gw_.begin(), gw_.end(), 0.0f);
  std::fill(gb_.begin(), gb_.end(), 0.0f);
  float* maps = take_zeroed(ws, in_ch_ * plane + kLanes);
  const std::size_t groups = (out_ch_ + kLanes - 1) / kLanes;
  float* gyp = take_zeroed(ws, groups * hw * kLanes);
  float* gyc = gx ? ws.take({out_ch_ * hw + kLanes}).data() : nullptr;
  float* gmap = gx ? ws.take({plane}).data() : nullptr;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gyb = grad_out.data() + b * out_ch_ * hw;
    // gy pack: per group of kLanes output channels, pixel-major; the
    // lanes past OC stay zero from the take.
    for (std::size_t o = 0; o < out_ch_; ++o)
      for (std::size_t p = 0; p < hw; ++p)
        gyp[(o / kLanes * hw + p) * kLanes + o % kLanes] = gyb[o * hw + p];
    fill_maps(x.data() + b * in_ch_ * hw, in_ch_, h, w, maps);
    // Channel 0's tiles also take gb += the per-channel sums of gy.
    for (std::size_t o0 = 0; o0 < out_ch_; o0 += kLanes)
      for (std::size_t c = 0; c < in_ch_; ++c)
        weight_grad_tile(maps + c * plane, pw, h, w, gyp + o0 * hw,
                         gw_.data() + o0 * kk + c * 9, kk,
                         c == 0 ? gb_.data() + o0 : nullptr,
                         std::min(kLanes, out_ch_ - o0));
    if (!gx) continue;
    std::copy_n(gyb, out_ch_ * hw, gyc);
    // Input gradient, one channel at a time: its bordered map starts at
    // +0.0f and takes tap after tap, each tap's column gradient over
    // every pixel before the next, then its interior is copied out —
    // every element gets col2im's adds in its order, and grad_in needs
    // no zeroing.
    for (std::size_t c = 0; c < in_ch_; ++c, gx += hw) {
      std::fill_n(gmap, plane, 0.0f);
      for (std::size_t t = 0; t < 9; ++t)
        for (std::size_t y0 = 0; y0 < h; y0 += kLanes)
          for (std::size_t x0 = 0; x0 < w; x0 += kLanes)
            input_grad_tile(out_ch_, w_.data() + c * 9 + t, kk,
                            gyc + y0 * w + x0, hw, w,
                            gmap + (y0 + t / 3) * pw + x0 + t % 3, pw,
                            std::min(kLanes, h - y0),
                            std::min(kLanes, w - x0));
      for (std::size_t y = 0; y < h; ++y)
        for (std::size_t i = 0; i < w; ++i)
          gx[y * w + i] = gmap[(y + 1) * pw + 1 + i];
    }
  }
}

std::vector<ParamView> Conv2d::params() {
  return {{w_, gw_}, {b_, gb_}};
}

// -------------------------------------------------------------- MaxPool2

void MaxPool2::forward(const Tensor& x, Tensor& y, Workspace&) {
  assert(x.ndim() == 4);
  cached_in_shape_ = x.shape();
  const std::size_t planes = x.dim(0) * x.dim(1), h = x.dim(2), w = x.dim(3),
                    oh = h / 2, ow = w / 2;
  y.resize({x.dim(0), x.dim(1), oh, ow});
  argmax_.resize(y.numel());
  // Output row (plane, oy) reads input rows 2*oy and 2*oy + 1 of its
  // plane; an odd last row or column is never read. Each window keeps
  // its first value, replaced by each later one only if strictly
  // greater: ties keep the earlier slot, a NaN after the first slot is
  // skipped. The select runs on integer masks, not a branch, which
  // ReLU's zero ties would make mispredict.
  for (std::size_t pl = 0; pl < planes; ++pl)
    for (std::size_t oy = 0, r = pl * oh; oy < oh; ++oy, ++r) {
      const std::size_t top = (pl * h + 2 * oy) * w;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t at = top + 2 * ox;
        const std::size_t slot[4] = {at, at + 1, at + w, at + w + 1};
        std::uint32_t best = std::bit_cast<std::uint32_t>(x[at]);
        std::size_t arg = at;
        for (std::size_t k = 1; k < 4; ++k) {
          const float v = x[slot[k]];
          const bool gt = v > std::bit_cast<float>(best);
          const std::uint32_t m = 0u - std::uint32_t(gt);
          best = (best & ~m) | (std::bit_cast<std::uint32_t>(v) & m);
          const std::size_t mi = 0 - std::size_t(gt);
          arg = (arg & ~mi) | (slot[k] & mi);
        }
        y[r * ow + ox] = std::bit_cast<float>(best);
        argmax_[r * ow + ox] = arg;
      }
    }
}

void MaxPool2::backward(const Tensor& grad_out, Tensor& grad_in, Workspace&) {
  assert(grad_out.numel() == argmax_.size());
  grad_in.resize(cached_in_shape_);
  grad_in.zero();
  for (std::size_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_[i]] += grad_out[i];
}

// ----------------------------------------------------- ResidualConvBlock

ResidualConvBlock::ResidualConvBlock(std::size_t channels, Rng& rng)
    : conv1_(channels, channels, rng), conv2_(channels, channels, rng) {}

void ResidualConvBlock::forward(const Tensor& x, Tensor& y, Workspace& ws) {
  Tensor& h1 = ws.take(x.shape());
  conv1_.forward(x, h1, ws);
  Tensor& h2 = ws.take(x.shape());
  relu_mid_.forward(h1, h2, ws);
  Tensor& s = ws.take(x.shape());
  conv2_.forward(h2, s, ws);
  assert(s.same_shape(x));
  {
    float* __restrict sp = s.data();
    const float* __restrict xp = x.data();
    const std::size_t n = s.numel();
    for (std::size_t i = 0; i < n; ++i) sp[i] += xp[i];
  }
  relu_out_.forward(s, y, ws);
}

void ResidualConvBlock::backward(const Tensor& grad_out, Tensor& grad_in,
                                 Workspace& ws) {
  Tensor& ds = ws.take(grad_out.shape());
  relu_out_.backward(grad_out, ds, ws);
  // Main branch: conv2 -> mid ReLU -> conv1; skip branch adds ds directly.
  Tensor& g2 = ws.take(ds.shape());
  conv2_.backward(ds, g2, ws);
  Tensor& g3 = ws.take(ds.shape());
  relu_mid_.backward(g2, g3, ws);
  conv1_.backward(g3, grad_in, ws);
  {
    float* __restrict gp = grad_in.data();
    const float* __restrict dp = ds.data();
    const std::size_t n = grad_in.numel();
    for (std::size_t i = 0; i < n; ++i) gp[i] += dp[i];
  }
}

std::vector<ParamView> ResidualConvBlock::params() {
  auto p = conv1_.params();
  auto p2 = conv2_.params();
  p.insert(p.end(), p2.begin(), p2.end());
  return p;
}

}  // namespace signguard::nn
