#include "aggregators/baselines.h"
#include "aggregators/internal.h"
#include "common/vecops.h"
#include "obs/trace.h"

namespace signguard::agg {

std::vector<float> MedianAggregator::aggregate(
    const common::GradientMatrix& grads, const GarContext&) {
  check_grads(grads);
  const std::size_t n = grads.rows();
  obs::Span span("agg/median", std::int64_t(n));
  std::vector<float> out(grads.cols());
  const std::size_t mid = n / 2;
  // The middle rank of each sorted column, or the float mean of the two
  // middle ranks for even n.
  vec::for_each_sorted_tile(grads, {}, [&](const vec::SortedTile& t) {
    for (std::size_t c = 0; c < t.width; ++c)
      out[t.first_col + c] =
          n % 2 == 1 ? t.at(mid, c) : 0.5f * (t.at(mid - 1, c) + t.at(mid, c));
  });
  return out;
}

}  // namespace signguard::agg
