#include "nn/rnn.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/gemm.h"

namespace signguard::nn {

RnnTanh::RnnTanh(std::size_t input_dim, std::size_t hidden_dim, Rng& rng)
    : in_(input_dim),
      hid_(hidden_dim),
      wxh_(hidden_dim * input_dim),
      whh_(hidden_dim * hidden_dim),
      bh_(hidden_dim, 0.0f),
      gwxh_(wxh_.size(), 0.0f),
      gwhh_(whh_.size(), 0.0f),
      gbh_(hidden_dim, 0.0f) {
  const double bx = std::sqrt(6.0 / double(input_dim + hidden_dim));
  for (auto& v : wxh_) v = static_cast<float>(rng.uniform(-bx, bx));
  // Orthogonal-ish small init for the recurrent matrix keeps BPTT stable.
  const double bh = std::sqrt(3.0 / double(hidden_dim));
  for (auto& v : whh_) v = static_cast<float>(rng.uniform(-bh, bh));
}

void RnnTanh::forward(const Tensor& x, Tensor& y, Workspace& ws) {
  assert(x.ndim() == 3 && x.dim(2) == in_);
  cached_input_ = &x;
  const std::size_t batch = x.dim(0), time = x.dim(1);
  y.resize({batch, time, hid_});
  cached_output_ = &y;
  Tensor& pre = ws.take({batch, hid_});
  // A fixed-t slice of a [B, T, *] tensor is a strided [B, *] matrix:
  // row b lives at base + t*width + b*(T*width), i.e. ld = T*width.
  const std::size_t x_stride = time * in_, h_stride = time * hid_;
  for (std::size_t t = 0; t < time; ++t) {
    float* p = pre.data();
    for (std::size_t b = 0; b < batch; ++b)
      std::copy(bh_.begin(), bh_.end(), p + b * hid_);
    // pre = b + x_t W_xh^T + h_{t-1} W_hh^T (h_0 = 0 -> term skipped).
    gemm_nt(batch, hid_, in_, x.data() + t * in_, x_stride, wxh_.data(), in_,
            p, hid_, /*accumulate=*/true);
    if (t > 0)
      gemm_nt(batch, hid_, hid_, y.data() + (t - 1) * hid_, h_stride,
              whh_.data(), hid_, p, hid_, /*accumulate=*/true);
    float* ht = y.data() + t * hid_;
    for (std::size_t b = 0; b < batch; ++b) {
      const float* pb = p + b * hid_;
      float* hb = ht + b * h_stride;
      for (std::size_t k = 0; k < hid_; ++k) hb[k] = std::tanh(pb[k]);
    }
  }
}

void RnnTanh::backward(const Tensor& grad_out, Tensor& grad_in,
                       Workspace& ws) {
  assert(cached_input_ != nullptr && cached_output_ != nullptr);
  const Tensor& x = *cached_input_;
  const Tensor& hidden = *cached_output_;
  const std::size_t batch = x.dim(0), time = x.dim(1);
  assert(grad_out.same_shape(hidden));
  grad_in.resize({batch, time, in_});
  // The timesteps add into the parameter gradients, which start at +0.0f.
  std::fill(gwxh_.begin(), gwxh_.end(), 0.0f);
  std::fill(gwhh_.begin(), gwhh_.end(), 0.0f);
  std::fill(gbh_.begin(), gbh_.end(), 0.0f);
  Tensor& dh = ws.take({batch, hid_});
  Tensor& dpre = ws.take({batch, hid_});
  const std::size_t x_stride = time * in_, h_stride = time * hid_;
  // dh = dL/dh_t: at the last step the output's gradient alone.
  const float* gy = grad_out.data();
  for (std::size_t b = 0; b < batch; ++b)
    std::copy_n(gy + b * h_stride + (time - 1) * hid_, hid_,
                dh.data() + b * hid_);
  for (std::size_t t = time; t-- > 0;) {
    // dpre = dh * (1 - h_t^2): gradient at the pre-activation.
    const float* ht = hidden.data() + t * hid_;
    for (std::size_t b = 0; b < batch; ++b) {
      const float* hb = ht + b * h_stride;
      const float* dhb = dh.data() + b * hid_;
      float* dpb = dpre.data() + b * hid_;
      for (std::size_t k = 0; k < hid_; ++k)
        dpb[k] = dhb[k] * (1.0f - hb[k] * hb[k]);
    }
    add_col_sums(dpre.data(), batch, hid_, hid_, gbh_.data());
    // gW_xh += dpre^T x_t ; dx_t = dpre W_xh
    gemm_tn(hid_, in_, batch, dpre.data(), hid_, x.data() + t * in_, x_stride,
            gwxh_.data(), in_, /*accumulate=*/true);
    gemm_nn(batch, in_, hid_, dpre.data(), hid_, wxh_.data(), in_,
            grad_in.data() + t * in_, x_stride, /*accumulate=*/false);
    if (t > 0) {
      gemm_tn(hid_, hid_, batch, dpre.data(), hid_,
              hidden.data() + (t - 1) * hid_, h_stride, gwhh_.data(), hid_,
              /*accumulate=*/true);
      // dh for the previous step: the recurrent flow through W_hh, then
      // that step's output gradient. Not needed after the t == 0 step —
      // there is no previous step.
      gemm_nn(batch, hid_, hid_, dpre.data(), hid_, whh_.data(), hid_,
              dh.data(), hid_, /*accumulate=*/false);
      const float* gyp = gy + (t - 1) * hid_;
      for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t k = 0; k < hid_; ++k)
          dh[b * hid_ + k] += gyp[b * h_stride + k];
    }
  }
}

std::vector<ParamView> RnnTanh::params() {
  return {{wxh_, gwxh_}, {whh_, gwhh_}, {bh_, gbh_}};
}

}  // namespace signguard::nn
