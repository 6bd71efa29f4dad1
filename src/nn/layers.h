#pragma once
// Layer interface plus the dense / elementwise / embedding layers. The
// convolutional layers live in conv.h, the recurrent layer in rnn.h.
//
// Contract: forward(x, y, ws) writes the layer output into the
// caller-provided tensor y (resizing it, capacity-reusing) and may cache
// a borrowed pointer to x — the caller (Model) guarantees x outlives the
// matching backward() call, so layers never deep-copy activations.
// backward(grad_out, grad_in, ws) receives dL/d(output), writes this
// batch's parameter gradients and writes dL/d(input) into grad_in.
// Every element of every parameter gradient is written, so nothing
// carries over from an earlier backward(): a layer whose gradient sums
// over samples, timesteps or tokens starts its own blob at +0.0f. The
// Model gathers the gradients into one flat buffer for the FL layer.
// Layer-internal scratch comes from the Workspace arena (ws.take), so a
// fixed pass structure allocates nothing after the first batch.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace signguard::nn {

// A (value, gradient) view pair over one parameter blob of a layer.
struct ParamView {
  std::span<float> value;
  std::span<float> grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual void forward(const Tensor& x, Tensor& y, Workspace& ws) = 0;
  virtual void backward(const Tensor& grad_out, Tensor& grad_in,
                        Workspace& ws) = 0;

  // Backward for the model's first parameterized layer: nothing below it
  // consumes dL/d(input), so layers that can skip producing it override
  // this (Linear drops one GEMM, Conv2d its input-gradient loop).
  // Default: full backward into a workspace sink. Parameter gradients are
  // identical to backward()'s.
  virtual void backward_params_only(const Tensor& grad_out, Workspace& ws) {
    Tensor& sink = ws.take({});
    backward(grad_out, sink, ws);
  }

  // Views over every learnable blob (empty for stateless layers). A Model
  // takes them once and keeps them, so they must stay valid as long as
  // the layer lives.
  virtual std::vector<ParamView> params() { return {}; }

  virtual std::string name() const = 0;
};

// Fully connected: y = x W^T + b, W is [out x in] row-major, x is [B, in].
// Forward/backward are three GEMM calls (nt for the output, nn for dx,
// tn for the weight gradient) plus bias broadcast/reduction.
class Linear : public Layer {
 public:
  // `gain` scales the Xavier-uniform initialization bound (use
  // sqrt(2) ~ He for ReLU stacks, 1 for linear/tanh heads).
  Linear(std::size_t in, std::size_t out, Rng& rng, double gain = 1.0);

  void forward(const Tensor& x, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  void backward_params_only(const Tensor& grad_out, Workspace& ws) override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "Linear"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  std::vector<float> w_, b_, gw_, gb_;
  const Tensor* cached_input_ = nullptr;  // borrowed; valid until backward
};

// Elementwise max(0, x).
class ReLU : public Layer {
 public:
  void forward(const Tensor& x, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  std::string name() const override { return "ReLU"; }

 private:
  const Tensor* cached_input_ = nullptr;
};

// Elementwise tanh(x).
class Tanh : public Layer {
 public:
  void forward(const Tensor& x, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  std::string name() const override { return "Tanh"; }

 private:
  const Tensor* cached_output_ = nullptr;  // our own y slot, reused in bwd
};

// [B, ...] -> [B, prod(...)]. Metadata-only reshape plus one buffer copy
// into the caller's slot (assign_from reuses its capacity).
class Flatten : public Layer {
 public:
  void forward(const Tensor& x, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> cached_shape_;
};

// Token embedding: input [B, T] of ids stored as floats, output [B, T, E].
// Ids must be integers in [0, vocab).
class Embedding : public Layer {
 public:
  Embedding(std::size_t vocab, std::size_t dim, Rng& rng);

  void forward(const Tensor& ids, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  void backward_params_only(const Tensor& grad_out, Workspace& ws) override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "Embedding"; }

 private:
  std::size_t vocab_, dim_;
  std::vector<float> w_, gw_;
  std::vector<int> cached_ids_;
  std::size_t cached_batch_ = 0, cached_time_ = 0;
};

// Mean over the time axis: [B, T, E] -> [B, E].
class MeanPoolTime : public Layer {
 public:
  void forward(const Tensor& x, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  std::string name() const override { return "MeanPoolTime"; }

 private:
  std::size_t cached_time_ = 0;
};

}  // namespace signguard::nn
