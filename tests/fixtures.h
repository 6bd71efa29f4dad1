#pragma once
// Fixtures shared by the test binaries.

#include <algorithm>
#include <cstdint>

#include "common/gradient_matrix.h"
#include "common/rng.h"

namespace signguard {

// n rows drawn in order from one Rng(seed), one normal_vector(d, mean,
// stddev) per row: a fixture's first k rows do not depend on how many
// rows follow, so tests may overwrite trailing rows with attackers.
inline common::GradientMatrix gaussian_grads(std::size_t n, std::size_t d,
                                             double mean, double stddev,
                                             std::uint64_t seed) {
  Rng rng(seed);
  common::GradientMatrix out(n, d);
  for (std::size_t i = 0; i < n; ++i)
    std::ranges::copy(rng.normal_vector(d, mean, stddev), out.row(i).begin());
  return out;
}

}  // namespace signguard
