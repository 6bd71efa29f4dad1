#pragma once
// Fixtures shared by the test binaries.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>

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

// A path under gtest's temporary directory for files a test writes and
// removes (checkpoints): `name` plus this process's id, so two test runs
// on one host, such as a Release and a sanitizer build's ctest, never
// share or delete each other's files.
inline std::string unique_temp_path(const std::string& name) {
  return testing::TempDir() + name + "_" + std::to_string(::getpid());
}

}  // namespace signguard
