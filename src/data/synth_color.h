#pragma once
// Deterministic synthetic 3-channel image data — the offline stand-in for
// CIFAR-10 ("Substitutions" in docs/ARCHITECTURE.md). Each class owns a
// colour/texture field: per-channel sinusoidal gratings with
// class-specific frequency, phase and orientation plus a colour bias.
// Harder than the grayscale task (more noise, overlapping textures),
// mirroring CIFAR-10 vs MNIST.

#include <cstdint>

#include "data/synth_image.h"  // TrainTest

namespace signguard::data {

struct SynthColorConfig {
  std::size_t classes = 10;
  std::size_t hw = 16;               // image is 3 x hw x hw
  std::size_t train_per_class = 500;
  std::size_t test_per_class = 200;
  double noise = 1.1;   // heavy noise: classes overlap like natural images
  int max_shift = 3;
  std::uint64_t seed = 33;
};

TrainTest make_synth_color(const SynthColorConfig& cfg);

}  // namespace signguard::data
