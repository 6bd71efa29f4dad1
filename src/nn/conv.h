#pragma once
// Convolutional layers: 3x3 same-padding Conv2d, 2x2 MaxPool, and a
// two-conv residual block (the "ResNet-18-like" ingredient of the CIFAR
// stand-in model). Activations are [B, C, H, W] row-major tensors.
//
// Conv2d lowers to GEMM: forward im2cols each sample into a packed
// [IC*9 x H*W] column buffer and multiplies by the [OC x IC*9] weight
// matrix; backward re-lowers the borrowed input for the weight gradient
// and col2im-sums the column gradient back to the input. Both lowerings
// go through an (H+2) x (W+2) bordered map of one channel whose zero
// border is the padding, so every tap row is a plain W-float copy (or
// add) with no range check: im2col copies the channel into the map's
// interior and reads padding taps from the border as literal +0.0f;
// col2im accumulates into a map started at +0.0f, each element in k
// order as a range-checked scatter would, and copies the interior out. The single-sample column buffers and the map
// come from the Workspace arena, so steady-state training allocates
// nothing and eval-sized batches don't balloon the arena.
//
// MaxPool2 keeps the first strict maximum of each window scanned (0,0),
// (0,1), (1,0), (1,1) — ties keep the earlier slot, a NaN after the
// first is skipped — selected with integer masks rather than a branch,
// and its backward adds each pooled gradient to +0.0 at that slot.

#include <vector>

#include "nn/layers.h"

namespace signguard::nn {

// 2-D convolution, kernel 3x3, stride 1, zero padding 1 (same spatial size).
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, Rng& rng);

  void forward(const Tensor& x, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  void backward_params_only(const Tensor& grad_out, Workspace& ws) override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "Conv2d"; }

  static constexpr std::size_t kKernel = 3;

 private:
  std::size_t in_ch_, out_ch_;
  std::vector<float> w_, b_, gw_, gb_;  // w: [OC, IC, 3, 3] == [OC x IC*9]
  // Forward lowers one sample at a time into a single [IC*9 x H*W]
  // workspace panel and backward re-lowers from the borrowed input, so
  // no batch-sized panel is ever retained — an evaluation-sized forward
  // would otherwise pin megabytes per layer in the never-shrinking arena.
  const Tensor* cached_input_ = nullptr;  // borrowed; valid until backward
};

// 2x2 max pooling with stride 2. H and W must be even.
class MaxPool2 : public Layer {
 public:
  void forward(const Tensor& x, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  std::string name() const override { return "MaxPool2"; }

 private:
  std::vector<std::size_t> cached_in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index of each pooled max
};

// y = relu(conv2(relu(conv1(x))) + x). Channel count is preserved so the
// identity shortcut needs no projection.
class ResidualConvBlock : public Layer {
 public:
  ResidualConvBlock(std::size_t channels, Rng& rng);

  void forward(const Tensor& x, Tensor& y, Workspace& ws) override;
  void backward(const Tensor& grad_out, Tensor& grad_in,
                Workspace& ws) override;
  std::vector<ParamView> params() override;
  std::string name() const override { return "ResidualConvBlock"; }

 private:
  Conv2d conv1_, conv2_;
  ReLU relu_mid_;
  const Tensor* cached_sum_ = nullptr;  // pre-activation of the output ReLU
};

}  // namespace signguard::nn
