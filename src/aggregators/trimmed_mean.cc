#include <algorithm>

#include "aggregators/baselines.h"
#include "aggregators/internal.h"
#include "common/vecops.h"
#include "obs/trace.h"

namespace signguard::agg {

std::vector<float> TrimmedMeanAggregator::aggregate(
    const common::GradientMatrix& grads, const GarContext& ctx) {
  check_grads(grads);
  const std::size_t n = grads.rows();
  obs::Span span("agg/trimmed-mean", std::int64_t(n));
  // Trim m from each side but always keep at least one value.
  const std::size_t trim =
      std::min(ctx.assumed_byzantine, (n - 1) / 2);
  std::vector<float> out(grads.cols());
  // Each column's kept ranks [trim, n - trim) are summed in ascending
  // order into one double, a whole sorted tile of columns per rank.
  vec::for_each_sorted_tile(grads, {}, [&](const vec::SortedTile& t) {
    double acc[vec::kSortTileCols] = {};
    for (std::size_t r = trim; r < n - trim; ++r)
      for (std::size_t c = 0; c < vec::kSortTileCols; ++c)
        acc[c] += double(t.at(r, c));
    for (std::size_t c = 0; c < t.width; ++c)
      out[t.first_col + c] =
          static_cast<float>(acc[c] / double(n - 2 * trim));
  });
  return out;
}

}  // namespace signguard::agg
