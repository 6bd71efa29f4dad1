#pragma once
// Convolutional layers: 3x3 same-padding Conv2d, 2x2 MaxPool, and a
// two-conv residual block (the "ResNet-18-like" ingredient of the CIFAR
// stand-in model). Activations are [B, C, H, W] row-major tensors.
//
// Conv2d runs three register-tiled loops, one per product, on tiles of
// eight accumulator rows of eight floats (gemm.cc's vector row type and
// AVX2 clone). They read each sample from IC zero-bordered (H+2) x
// (W+2) planes, one per input channel, whose border is the padding, so
// no tap read needs a range check and no column panel is built:
//   - forward: rows are up to 8 output channels, lanes 8 pixels of one
//     output row, k the IC*9 taps ascending; the bias is added last;
//   - weight gradient: rows are one input channel's 9 taps, lanes 8
//     output channels (gy packed pixel-major), k the pixels ascending;
//     gW starts at +0.0f and each tile starts from it, so samples also
//     add in order;
//   - input gradient: tap by tap, each tap's column gradient over every
//     pixel (rows 8 pixel vectors, k the output channels) is added into
//     a bordered map started at +0.0f, whose interior is then copied to
//     grad_in.
// Every output element keeps the add sequence of the im2col -> GEMM ->
// col2im lowering this replaced, so the results are bit-identical to it
// (tests/oracles.h ConvOracle), and gemm_flops bills those products.
// Scratch — one sample's planes, the weight pack, the gy pack and one
// gradient map — comes from the Workspace arena and is never batch-sized,
// so steady-state training allocates nothing and eval-sized batches
// don't balloon the arena.
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
  // Both backwards: parameter gradients, and the input gradient into gx
  // unless it is null.
  void backward_into(const Tensor& grad_out, float* gx, Workspace& ws);

  std::size_t in_ch_, out_ch_;
  std::vector<float> w_, b_, gw_, gb_;  // w: [OC, IC, 3, 3] == [OC x IC*9]
  // Every product reads the input one sample at a time, so backward
  // reads the borrowed input again rather than keeping anything.
  const Tensor* cached_input_ = nullptr;  // borrowed; valid until backward
};

// 2x2 max pooling with stride 2 over each [H, W] plane: an odd last
// row or column is dropped (floor).
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
  ReLU relu_mid_, relu_out_;
};

}  // namespace signguard::nn
