#pragma once
// A Model is an ordered stack of layers plus flat-buffer parameter I/O.
// The federated-learning layer treats a model as an opaque vector of
// parameters: it reads the flattened gradient after backward() and writes
// flattened parameters before the next round.
//
// Every Model owns a Workspace arena: forward() threads it through the
// layer chain and returns a reference to the last activation slot (valid
// until the next forward()), backward() ping-pongs gradient buffers
// through the same arena. The trainer keeps one scratch Model per pool
// worker, which makes the arena per-worker: after the first batch of a
// given shape, a training step allocates nothing.

#include <memory>
#include <span>
#include <vector>

#include "nn/layers.h"
#include "nn/workspace.h"

namespace signguard::nn {

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  // Appends a layer; returns *this for fluent building.
  Model& add(std::unique_ptr<Layer> layer);

  // Runs the layer chain; the result lives in this model's workspace and
  // stays valid until the next forward() call. The input `x` is borrowed
  // by the layers and must outlive the matching backward().
  const Tensor& forward(const Tensor& x);

  // Propagates dL/d(logits) through the stack. Every layer writes this
  // batch's parameter gradients, so nothing carries over from an earlier
  // backward(), whichever batch or client it ran for.
  void backward(const Tensor& dlogits);

  Workspace& workspace() { return ws_; }

  // Non-const because they traverse Layer::params() views. None of the
  // parameter walks allocates, except the two that return a vector.
  std::size_t parameter_count();

  // Flat copies across every layer, in layer order then blob order.
  std::vector<float> parameters();
  std::vector<float> gradients();

  // Allocation-free variant for the per-round hot path: one pass writes
  // the flattened gradient plus weight decay,
  //   out = float(double(grad) + weight_decay * double(param)),
  // straight from the layer blobs into `out` (e.g. a GradientMatrix row);
  // weight_decay == 0 is a plain copy. Precondition:
  // out.size() == parameter_count().
  void gradients_into(std::span<float> out, double weight_decay);

  void set_parameters(std::span<const float> flat);

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  static constexpr std::size_t kFirstParamUnknown = ~std::size_t(0);

  // Every layer's params() in layer order, built on first use after the
  // last add(): the parameter walks below then allocate nothing.
  const std::vector<ParamView>& param_views();

  std::vector<std::unique_ptr<Layer>> layers_;
  Workspace ws_;
  std::vector<ParamView> views_;
  // Lowest layer index with parameters (set with views_; layers_.size()
  // when no layer has any). backward() stops its gradient chain there.
  std::size_t first_param_layer_ = kFirstParamUnknown;
};

}  // namespace signguard::nn
