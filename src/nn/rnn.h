#pragma once
// Vanilla tanh recurrent layer with full backpropagation through time —
// the recurrent core of the TextRNN stand-in for the paper's AG-News
// bi-LSTM classifier. Each timestep is two batch-level GEMMs
// (x_t W_xh^T and h_{t-1} W_hh^T) over strided [B, *] slices of the
// [B, T, *] tensors. The hidden states are the layer's output, so
// backward reads them from the output slot the Model keeps until the
// next forward.

#include <vector>

#include "nn/layers.h"

namespace signguard::nn {

// h_t = tanh(W_xh x_t + W_hh h_{t-1} + b), h_0 = 0.
// Input [B, T, E]; output the hidden-state sequence [B, T, H].
class RnnTanh : public Layer {
 public:
  RnnTanh(std::size_t input_dim, std::size_t hidden_dim, Rng& rng);

  void forward(const Tensor& x, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "RnnTanh"; }

 private:
  std::size_t in_, hid_;
  std::vector<float> wxh_, whh_, bh_;    // [H x E], [H x H], [H]
  std::vector<float> gwxh_, gwhh_, gbh_;
  const Tensor* cached_input_ = nullptr;   // [B, T, E], borrowed
  const Tensor* cached_output_ = nullptr;  // [B, T, H], our own y slot
};

}  // namespace signguard::nn
