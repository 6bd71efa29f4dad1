#include "nn/optimizer.h"

#include <cassert>

namespace signguard::nn {

void SgdMomentum::step(std::span<float> params, std::span<const float> grad) {
  assert(params.size() == grad.size());
  if (velocity_.size() != grad.size()) velocity_.assign(grad.size(), 0.0f);
  for (std::size_t i = 0; i < params.size(); ++i) {
    velocity_[i] =
        static_cast<float>(momentum_ * velocity_[i] + double(grad[i]));
    params[i] = static_cast<float>(double(params[i]) - lr_ * velocity_[i]);
  }
}

}  // namespace signguard::nn
