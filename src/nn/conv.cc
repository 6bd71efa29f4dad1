#include "nn/conv.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "nn/gemm.h"

namespace signguard::nn {

namespace {

// The 3x3 same-padding kernel reads a one-pixel zero border around each
// [H, W] channel. Both lowering kernels go through an (H+2) x (W+2)
// bordered map of one channel instead: tap (ky, kx), ky and kx in
// {0, 1, 2}, of output pixel (y, x) sits at bordered (y + ky, x + kx),
// so every tap row is a plain W-float run with no range check. `map` is
// that many floats of scratch. Rows are copied by plain loops: GCC turns
// std::copy into a memmove call per row, and on rows of 8-16 floats the
// call costs more than the copy.

// Lowers one [C, H, W] sample to a [C*9 x H*W] column panel for the 3x3
// same-padding convolution: row k = (c*3 + ky)*3 + kx holds channel c
// shifted by (ky-1, kx-1), out-of-range taps read from the border as
// literal +0.0f. Column p of the panel is the 9C-tap receptive field of
// output pixel p, so conv becomes W[OC x C*9] * cols.
void im2col_3x3(const float* x, std::size_t ch, std::size_t h, std::size_t w,
                float* map, float* cols) {
  const std::size_t pw = w + 2, hw = h * w;
  std::fill_n(map, (h + 2) * pw, 0.0f);
  for (std::size_t c = 0; c < ch; ++c, x += hw) {
    for (std::size_t y = 0; y < h; ++y) {
      float* dst = map + (y + 1) * pw + 1;
      for (std::size_t i = 0; i < w; ++i) dst[i] = x[y * w + i];
    }
    // The three taps of one kernel row read the same bordered row.
    for (std::size_t ky = 0; ky < 3; ++ky, cols += 3 * hw)
      for (std::size_t y = 0; y < h; ++y) {
        const float* src = map + (y + ky) * pw;
        float* dst = cols + y * w;
        for (std::size_t i = 0; i < w; ++i) {
          dst[i] = src[i];
          dst[hw + i] = src[i + 1];
          dst[2 * hw + i] = src[i + 2];
        }
      }
  }
}

// Adjoint of im2col_3x3: accumulates a [C*9 x H*W] column-gradient panel
// onto the [C, H, W] input gradient `gx`, which it overwrites. Each
// channel sums in a bordered map started at +0.0f and its interior is
// copied out: every element of gx gets the adds a range-checked scatter
// onto a zeroed gx would give it, in the same order (k ascending), and
// out-of-range taps land in the border. The order is fixed, so the
// result is thread-count independent.
void col2im_3x3(const float* cols, std::size_t ch, std::size_t h,
                std::size_t w, float* map, float* gx) {
  if (w == 0) return;  // no pixels; the rows below read t0[0]
  const std::size_t pw = w + 2, hw = h * w;
  for (std::size_t c = 0; c < ch; ++c, gx += hw) {
    std::fill_n(map, (h + 2) * pw, 0.0f);
    // Kernel row ky adds its three taps into one bordered row: element j
    // gets t0[j], t1[j-1], t2[j-2], those in range, in that order.
    for (std::size_t ky = 0; ky < 3; ++ky, cols += 3 * hw)
      for (std::size_t y = 0; y < h; ++y) {
        float* dst = map + (y + ky) * pw;
        const float* t0 = cols + y * w;
        const float* t1 = t0 + hw;
        const float* t2 = t1 + hw;
        dst[0] += t0[0];
        dst[1] = w > 1 ? (dst[1] + t0[1]) + t1[0] : dst[1] + t1[0];
        for (std::size_t j = 2; j < w; ++j)
          dst[j] = ((dst[j] + t0[j]) + t1[j - 1]) + t2[j - 2];
        if (w > 1) dst[w] = (dst[w] + t1[w - 1]) + t2[w - 2];
        dst[w + 1] += t2[w - 1];
      }
    for (std::size_t y = 0; y < h; ++y) {
      const float* src = map + (y + 1) * pw + 1;
      for (std::size_t i = 0; i < w; ++i) gx[y * w + i] = src[i];
    }
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
  cached_input_ = &x;
  y.resize({batch, out_ch_, h, w});
  // One single-sample panel, reused across the batch; backward re-lowers
  // from the borrowed input, so eval-sized batches never pin a
  // batch-sized panel in the arena.
  Tensor& cols = ws.take({kk, hw});
  float* map = ws.take({h + 2, w + 2}).data();
  for (std::size_t b = 0; b < batch; ++b) {
    im2col_3x3(x.data() + b * in_ch_ * hw, in_ch_, h, w, map, cols.data());
    float* yb = y.data() + b * out_ch_ * hw;
    // y_b = W cols_b, then the per-channel bias broadcast.
    gemm_nn(out_ch_, hw, kk, w_.data(), kk, cols.data(), hw, yb, hw,
            /*accumulate=*/false);
    add_bias_cols(yb, out_ch_, hw, hw, b_.data());
  }
}

void Conv2d::backward(const Tensor& grad_out, Tensor& grad_in,
                      Workspace& ws) {
  assert(cached_input_ != nullptr);
  const Tensor& x = *cached_input_;
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = h * w, kk = in_ch_ * kKernel * kKernel;
  assert(grad_out.dim(0) == batch && grad_out.dim(1) == out_ch_ &&
         grad_out.dim(2) == h && grad_out.dim(3) == w);
  grad_in.resize({batch, in_ch_, h, w});
  Tensor& cols = ws.take({kk, hw});
  Tensor& dcols = ws.take({kk, hw});
  float* map = ws.take({h + 2, w + 2}).data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gyb = grad_out.data() + b * out_ch_ * hw;
    // gb += per-channel sums of gy.
    add_row_sums(gyb, out_ch_, hw, hw, gb_.data());
    // gW += gy_b cols_b^T (columns re-lowered; bitwise equal to forward's).
    im2col_3x3(x.data() + b * in_ch_ * hw, in_ch_, h, w, map, cols.data());
    gemm_nt(out_ch_, kk, hw, gyb, hw, cols.data(), hw, gw_.data(), kk,
            /*accumulate=*/true);
    // dcols = W^T gy_b, summed back into sample b's input gradient,
    // which col2im writes whole (grad_in needs no zeroing).
    gemm_tn(kk, hw, out_ch_, w_.data(), kk, gyb, hw, dcols.data(), hw,
            /*accumulate=*/false);
    col2im_3x3(dcols.data(), in_ch_, h, w, map,
               grad_in.data() + b * in_ch_ * hw);
  }
}

void Conv2d::backward_params_only(const Tensor& grad_out, Workspace& ws) {
  assert(cached_input_ != nullptr);
  const Tensor& x = *cached_input_;
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = h * w, kk = in_ch_ * kKernel * kKernel;
  assert(grad_out.dim(0) == batch && grad_out.dim(1) == out_ch_);
  Tensor& cols = ws.take({kk, hw});
  float* map = ws.take({h + 2, w + 2}).data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gyb = grad_out.data() + b * out_ch_ * hw;
    add_row_sums(gyb, out_ch_, hw, hw, gb_.data());
    im2col_3x3(x.data() + b * in_ch_ * hw, in_ch_, h, w, map, cols.data());
    gemm_nt(out_ch_, kk, hw, gyb, hw, cols.data(), hw, gw_.data(), kk,
            /*accumulate=*/true);
  }
}

std::vector<ParamView> Conv2d::params() {
  return {{w_, gw_}, {b_, gb_}};
}

// -------------------------------------------------------------- MaxPool2

void MaxPool2::forward(const Tensor& x, Tensor& y, Workspace&) {
  assert(x.ndim() == 4 && x.dim(2) % 2 == 0 && x.dim(3) % 2 == 0);
  cached_in_shape_ = x.shape();
  const std::size_t rows = x.dim(0) * x.dim(1) * (x.dim(2) / 2),
                    w = x.dim(3), ow = w / 2;
  y.resize({x.dim(0), x.dim(1), x.dim(2) / 2, ow});
  argmax_.resize(y.numel());
  // Output row r reads input rows 2r and 2r + 1 of the [B*C*H, W] view.
  // Each window keeps its first value, replaced by each later one only
  // if strictly greater: ties keep the earlier slot, a NaN after the
  // first slot is skipped. The select runs on integer masks, not a
  // branch, which ReLU's zero ties would make mispredict.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const std::size_t at = 2 * r * w + 2 * ox;
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
  const std::size_t n = s.numel();
  {
    float* __restrict sp = s.data();
    const float* __restrict xp = x.data();
    for (std::size_t i = 0; i < n; ++i) sp[i] += xp[i];
  }
  cached_sum_ = &s;
  y.resize(s.shape());
  {
    const float* __restrict sp = s.data();
    float* __restrict yp = y.data();
    for (std::size_t i = 0; i < n; ++i)
      yp[i] = sp[i] > 0.0f ? sp[i] : 0.0f;
  }
}

void ResidualConvBlock::backward(const Tensor& grad_out, Tensor& grad_in,
                                 Workspace& ws) {
  assert(cached_sum_ != nullptr);
  const Tensor& s = *cached_sum_;
  // Through the output ReLU.
  Tensor& ds = ws.take(s.shape());
  {
    const float* __restrict sp = s.data();
    const float* __restrict gp = grad_out.data();
    float* __restrict dp = ds.data();
    const std::size_t n = s.numel();
    for (std::size_t i = 0; i < n; ++i) {
      const float g = gp[i];  // unconditional load -> vector blend
      dp[i] = sp[i] > 0.0f ? g : 0.0f;
    }
  }
  // Main branch: conv2 -> mid ReLU -> conv1; skip branch adds ds directly.
  Tensor& g2 = ws.take(s.shape());
  conv2_.backward(ds, g2, ws);
  Tensor& g3 = ws.take(s.shape());
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
