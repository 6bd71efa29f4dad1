#include "nn/model.h"

#include <algorithm>
#include <cassert>

namespace signguard::nn {

Model& Model::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  first_param_layer_ = kFirstParamUnknown;
  return *this;
}

const std::vector<ParamView>& Model::param_views() {
  if (first_param_layer_ != kFirstParamUnknown) return views_;
  views_.clear();
  first_param_layer_ = layers_.size();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const auto p = layers_[i]->params();
    if (!p.empty() && first_param_layer_ == layers_.size())
      first_param_layer_ = i;
    views_.insert(views_.end(), p.begin(), p.end());
  }
  return views_;
}

const Tensor& Model::forward(const Tensor& x) {
  ws_.begin_pass();
  const Tensor* h = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Tensor& y = ws_.activation(i);
    layers_[i]->forward(*h, y, ws_);
    h = &y;
  }
  return *h;
}

void Model::backward(const Tensor& dlogits) {
  param_views();
  // Two ping-pong buffers: layer i reads the buffer layer i+1 wrote
  // ((i+1) & 1) and writes its own (i & 1) — never the same slot. The
  // chain stops at the first parameterized layer: no input gradient is
  // consumed below it, so that layer runs its params-only backward and
  // any parameter-free layers underneath are skipped entirely.
  const Tensor* g = &dlogits;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (i == first_param_layer_) {
      layers_[i]->backward_params_only(*g, ws_);
      return;
    }
    Tensor& gx = ws_.grad_buffer(i & 1);
    layers_[i]->backward(*g, gx, ws_);
    g = &gx;
  }
}

std::size_t Model::parameter_count() {
  std::size_t n = 0;
  for (const auto& p : param_views()) n += p.value.size();
  return n;
}

std::vector<float> Model::parameters() {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (const auto& p : param_views())
    flat.insert(flat.end(), p.value.begin(), p.value.end());
  return flat;
}

std::vector<float> Model::gradients() {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (const auto& p : param_views())
    flat.insert(flat.end(), p.grad.begin(), p.grad.end());
  return flat;
}

void Model::gradients_into(std::span<float> out, double weight_decay) {
  std::size_t off = 0;
  for (const auto& p : param_views()) {
    assert(off + p.grad.size() <= out.size());
    float* dst = out.data() + off;
    if (weight_decay == 0.0) {
      // A plain copy, not the decay formula: 0 * w would turn a -0.0
      // gradient into +0.0.
      std::copy(p.grad.begin(), p.grad.end(), dst);
    } else {
      for (std::size_t i = 0; i < p.grad.size(); ++i)
        dst[i] = static_cast<float>(double(p.grad[i]) +
                                    weight_decay * double(p.value[i]));
    }
    off += p.grad.size();
  }
  assert(off == out.size());
}

void Model::set_parameters(std::span<const float> flat) {
  std::size_t off = 0;
  for (const auto& p : param_views()) {
    assert(off + p.value.size() <= flat.size());
    std::copy_n(flat.data() + off, p.value.size(), p.value.data());
    off += p.value.size();
  }
  assert(off == flat.size());
}

}  // namespace signguard::nn
