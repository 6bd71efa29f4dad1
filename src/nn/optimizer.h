#pragma once
// SGD with momentum over flat parameter buffers. Weight decay is not
// applied here: Model::gradients_into folds it into each client's
// gradient row.
//
// Placement note (docs/ARCHITECTURE.md, "Substitutions"): with one local
// iteration and full participation (the paper's §V-C setting), every
// client's momentum buffer runs the same recursion over the same rounds,
// so the library applies momentum once, at the server.

#include <span>
#include <vector>

#include "common/serial.h"

namespace signguard::nn {

class SgdMomentum {
 public:
  SgdMomentum(double lr, double momentum) : lr_(lr), momentum_(momentum) {}

  // params <- params - lr * v, where v <- momentum * v + grad.
  void step(std::span<float> params, std::span<const float> grad);

  // Momentum buffer snapshot/restore for crash-consistent checkpoints
  // (fl/checkpoint.h): one float block, empty before the first step.
  void serialize_state(common::ByteWriter& w) const { w.floats(velocity_); }
  void restore_state(common::ByteReader& r) { velocity_ = r.floats(); }

 private:
  double lr_;
  double momentum_;
  std::vector<float> velocity_;
};

}  // namespace signguard::nn
