#pragma once
// Deterministic synthetic grayscale image classification data — the
// offline stand-in for MNIST / Fashion-MNIST ("Substitutions" in
// docs/ARCHITECTURE.md). Each class owns a procedurally generated
// archetype pattern (a sum of random Gaussian blobs); samples are noisy,
// randomly shifted copies of their class archetype. The `difficulty` noise level separates
// the "MNIST-like" (easy) and "Fashion-like" (harder) variants.

#include <cstdint>

#include "data/dataset.h"

namespace signguard::data {

struct SynthImageConfig {
  std::size_t classes = 10;
  std::size_t hw = 16;               // image is hw x hw, 1 channel
  std::size_t train_per_class = 600;
  std::size_t test_per_class = 200;
  double noise = 0.35;               // pixel Gaussian noise stddev
  int max_shift = 2;                 // uniform +/- translation in pixels
  std::size_t blobs_per_class = 4;   // archetype complexity
  std::uint64_t seed = 1;            // archetype + sampling seed
};

struct TrainTest {
  Dataset train;
  Dataset test;
};

TrainTest make_synth_image(const SynthImageConfig& cfg);

// Convenience presets matching the paper's two grayscale tasks.
SynthImageConfig mnist_like_config(std::uint64_t seed = 11);
SynthImageConfig fashion_like_config(std::uint64_t seed = 22);

}  // namespace signguard::data
