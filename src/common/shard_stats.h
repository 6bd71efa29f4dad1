#pragma once
// The root-merge accumulator of the hierarchical aggregation tree
// (docs/ARCHITECTURE.md "Sharded aggregation"): a weighted coordinate
// sum that the tree's wmean merge folds the shard aggregates into, one
// shard at a time in canonical shard order, so the double sums — and the
// merged mean — are bitwise reproducible for any SIGNGUARD_THREADS.

#include <span>
#include <vector>

namespace signguard::common {

struct ShardPartial {
  double weight = 0.0;      // total weight accumulated into `sum`
  std::vector<double> sum;  // sum of weight_i * row_i; empty until used
};

// sum += w * row; weight += w. Coordinate-parallel with each coordinate
// produced by exactly one worker; rows must arrive in canonical order
// for the double sums to be reproducible. Precondition: row.size()
// matches p.sum when p.sum is non-empty.
void accumulate_row(ShardPartial& p, std::span<const float> row, double w);

// The weighted mean sum / weight as float32 (sized like `sum`); all
// zeros when no weight was accumulated.
std::vector<float> finalize_mean(const ShardPartial& p);

}  // namespace signguard::common
