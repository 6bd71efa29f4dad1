#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/gemm.h"

namespace signguard::nn {

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, double gain)
    : in_(in),
      out_(out),
      w_(in * out),
      b_(out, 0.0f),
      gw_(in * out, 0.0f),
      gb_(out, 0.0f) {
  const double bound = gain * std::sqrt(6.0 / double(in + out));
  for (auto& v : w_) v = static_cast<float>(rng.uniform(-bound, bound));
}

void Linear::forward(const Tensor& x, Tensor& y, Workspace&) {
  assert(x.ndim() == 2 && x.dim(1) == in_);
  cached_input_ = &x;
  const std::size_t batch = x.dim(0);
  y.resize({batch, out_});
  // y = x W^T, then the bias broadcast.
  gemm_nt(batch, out_, in_, x.data(), in_, w_.data(), in_, y.data(), out_,
          /*accumulate=*/false);
  add_bias_rows(y.data(), batch, out_, out_, b_.data());
}

void Linear::backward(const Tensor& grad_out, Tensor& grad_in,
                      Workspace& ws) {
  assert(cached_input_ != nullptr);
  const std::size_t batch = cached_input_->dim(0);
  grad_in.resize({batch, in_});
  // dx = gy W
  gemm_nn(batch, in_, out_, grad_out.data(), out_, w_.data(), in_,
          grad_in.data(), in_, /*accumulate=*/false);
  backward_params_only(grad_out, ws);
}

void Linear::backward_params_only(const Tensor& grad_out, Workspace&) {
  assert(cached_input_ != nullptr);
  const Tensor& x = *cached_input_;
  const std::size_t batch = x.dim(0);
  assert(grad_out.ndim() == 2 && grad_out.dim(0) == batch &&
         grad_out.dim(1) == out_);
  // gW = gy^T x: the non-accumulating product starts every element at
  // +0.0f, and gb = the column sums of gy from +0.0f.
  gemm_tn(out_, in_, batch, grad_out.data(), out_, x.data(), in_, gw_.data(),
          in_, /*accumulate=*/false);
  std::fill(gb_.begin(), gb_.end(), 0.0f);
  add_col_sums(grad_out.data(), batch, out_, out_, gb_.data());
}

std::vector<ParamView> Linear::params() {
  return {{w_, gw_}, {b_, gb_}};
}

// ------------------------------------------------------------------ ReLU

void ReLU::forward(const Tensor& x, Tensor& y, Workspace&) {
  cached_input_ = &x;
  y.resize(x.shape());
  const float* in = x.data();
  float* out = y.data();
  for (std::size_t i = 0; i < x.numel(); ++i)
    out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

void ReLU::backward(const Tensor& grad_out, Tensor& grad_in, Workspace&) {
  assert(cached_input_ != nullptr &&
         grad_out.numel() == cached_input_->numel());
  const Tensor& x = *cached_input_;
  grad_in.resize(x.shape());
  // restrict lets the compiler vectorize the select into a masked blend;
  // the three buffers are distinct by construction (input activation,
  // incoming gradient, outgoing gradient slot).
  const float* __restrict xp = x.data();
  const float* __restrict gy = grad_out.data();
  float* __restrict gx = grad_in.data();
  const std::size_t n = x.numel();
  for (std::size_t i = 0; i < n; ++i) {
    // Unconditional load keeps the select if-convertible (vector blend);
    // a load behind the branch defeats auto-vectorization.
    const float g = gy[i];
    gx[i] = xp[i] > 0.0f ? g : 0.0f;
  }
}

// ------------------------------------------------------------------ Tanh

void Tanh::forward(const Tensor& x, Tensor& y, Workspace&) {
  y.resize(x.shape());
  const float* in = x.data();
  float* out = y.data();
  for (std::size_t i = 0; i < x.numel(); ++i)
    out[i] = std::tanh(in[i]);
  cached_output_ = &y;
}

void Tanh::backward(const Tensor& grad_out, Tensor& grad_in, Workspace&) {
  assert(cached_output_ != nullptr &&
         grad_out.numel() == cached_output_->numel());
  const Tensor& yv = *cached_output_;
  grad_in.resize(yv.shape());
  const float* __restrict yp = yv.data();
  const float* __restrict gy = grad_out.data();
  float* __restrict gx = grad_in.data();
  const std::size_t n = yv.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float t = yp[i];
    gx[i] = gy[i] * (1.0f - t * t);
  }
}

// --------------------------------------------------------------- Flatten

void Flatten::forward(const Tensor& x, Tensor& y, Workspace&) {
  cached_shape_ = x.shape();
  const std::size_t batch = x.dim(0);
  y.assign_from(x);
  y.reshape_in_place({batch, x.numel() / batch});
}

void Flatten::backward(const Tensor& grad_out, Tensor& grad_in, Workspace&) {
  grad_in.assign_from(grad_out);
  grad_in.reshape_in_place(cached_shape_);
}

// ------------------------------------------------------------- Embedding

Embedding::Embedding(std::size_t vocab, std::size_t dim, Rng& rng)
    : vocab_(vocab), dim_(dim), w_(vocab * dim), gw_(vocab * dim, 0.0f) {
  for (auto& v : w_) v = static_cast<float>(rng.normal(0.0, 0.1));
}

void Embedding::forward(const Tensor& ids, Tensor& y, Workspace&) {
  assert(ids.ndim() == 2);
  cached_batch_ = ids.dim(0);
  cached_time_ = ids.dim(1);
  cached_ids_.resize(ids.numel());
  y.resize({cached_batch_, cached_time_, dim_});
  for (std::size_t i = 0; i < ids.numel(); ++i) {
    const int id = static_cast<int>(ids[i]);
    assert(id >= 0 && std::size_t(id) < vocab_);
    cached_ids_[i] = id;
    const float* row = w_.data() + std::size_t(id) * dim_;
    float* out = y.data() + i * dim_;
    for (std::size_t e = 0; e < dim_; ++e) out[e] = row[e];
  }
}

void Embedding::backward(const Tensor& grad_out, Tensor& grad_in,
                         Workspace& ws) {
  backward_params_only(grad_out, ws);
  // Token ids are discrete inputs; there is no gradient to propagate.
  grad_in.resize({cached_batch_, cached_time_});
  grad_in.zero();
}

void Embedding::backward_params_only(const Tensor& grad_out, Workspace&) {
  assert(grad_out.numel() == cached_ids_.size() * dim_);
  // Each token adds its row gradient to its id's row, from +0.0f.
  std::fill(gw_.begin(), gw_.end(), 0.0f);
  for (std::size_t i = 0; i < cached_ids_.size(); ++i) {
    float* grow = gw_.data() + std::size_t(cached_ids_[i]) * dim_;
    const float* g = grad_out.data() + i * dim_;
    for (std::size_t e = 0; e < dim_; ++e) grow[e] += g[e];
  }
}

std::vector<ParamView> Embedding::params() { return {{w_, gw_}}; }

// ---------------------------------------------------------- MeanPoolTime

void MeanPoolTime::forward(const Tensor& x, Tensor& y, Workspace&) {
  assert(x.ndim() == 3);
  const std::size_t batch = x.dim(0), time = x.dim(1), dim = x.dim(2);
  cached_time_ = time;
  y.resize({batch, dim});
  y.zero();
  for (std::size_t b = 0; b < batch; ++b) {
    float* yb = y.data() + b * dim;
    for (std::size_t t = 0; t < time; ++t) {
      const float* xt = x.data() + (b * time + t) * dim;
      for (std::size_t e = 0; e < dim; ++e) yb[e] += xt[e];
    }
    for (std::size_t e = 0; e < dim; ++e) yb[e] /= float(time);
  }
}

void MeanPoolTime::backward(const Tensor& grad_out, Tensor& grad_in,
                            Workspace&) {
  assert(grad_out.ndim() == 2);
  const std::size_t batch = grad_out.dim(0), dim = grad_out.dim(1);
  grad_in.resize({batch, cached_time_, dim});
  const float inv = 1.0f / float(cached_time_);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gy = grad_out.data() + b * dim;
    for (std::size_t t = 0; t < cached_time_; ++t) {
      float* gx = grad_in.data() + (b * cached_time_ + t) * dim;
      for (std::size_t e = 0; e < dim; ++e) gx[e] = gy[e] * inv;
    }
  }
}

}  // namespace signguard::nn
