#pragma once
// Order statistics over small scalar samples: medians, quantiles, mean
// and standard deviation. These back SignGuard's norm-median reference
// and the similarity filters; the coordinate-wise rules read ranks from
// vec::for_each_sorted_tile instead.

#include <cstddef>
#include <span>
#include <vector>

namespace signguard::stats {

// Median of a sample (copies, so the input is untouched). For even sizes
// returns the average of the two middle elements. Returns quiet NaN on an
// empty sample (callers that cannot tolerate NaN must check first).
double median(std::span<const double> xs);
double median(std::span<const float> xs);

// q-quantile by linear interpolation between order statistics. q is
// clamped to [0, 1]; the interpolation indices are clamped to the sample,
// so q == 1.0 is safe even when FP round-off pushes ceil(pos) past the
// last element. Returns quiet NaN on an empty sample.
double quantile(std::span<const double> xs, double q);

// Arithmetic mean; Precondition: non-empty.
double mean(std::span<const double> xs);

// Population standard deviation; Precondition: non-empty.
double stddev(std::span<const double> xs);

}  // namespace signguard::stats
