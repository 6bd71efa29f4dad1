#include <algorithm>
#include <cmath>
#include <limits>

#include "aggregators/baselines.h"
#include "aggregators/internal.h"
#include "common/gradient_stats.h"
#include "common/vecops.h"
#include "obs/trace.h"

namespace signguard::agg {
namespace {

// Mean of the k values of sorted column c closest to its median, summed
// in the order they are picked: ascending distance |x - med|, and the
// lower value first on a distance tie (a stable sort by distance of the
// ascending column). Distances only grow walking outward from the middle
// ranks, so the picks are a merge of the two walks; a run of equal
// distances below the median is taken from its lowest rank up.
float median_window_mean(const vec::SortedTile& t, std::size_t c,
                         std::size_t k) {
  const std::size_t n = t.rows;
  const std::size_t mid = n / 2;
  const double med =
      n % 2 == 1 ? double(t.at(mid, c))
                 : 0.5 * (double(t.at(mid - 1, c)) + double(t.at(mid, c)));
  const auto dist = [&](std::size_t r) {
    return std::abs(double(t.at(r, c)) - med);
  };
  // Ranks [below, above) are taken; `below` walks down, `above` up.
  std::size_t below = mid, above = mid;
  std::size_t taken = 0;
  double acc = 0.0;
  while (taken < k) {
    if (below > 0 && (above == n || dist(below - 1) <= dist(above))) {
      const double run = dist(below - 1);
      std::size_t first = below - 1;
      while (first > 0 && dist(first - 1) == run) --first;
      for (std::size_t r = first; r < below && taken < k; ++r, ++taken)
        acc += double(t.at(r, c));
      below = first;
    } else {
      acc += double(t.at(above++, c));
      ++taken;
    }
  }
  return static_cast<float>(acc / double(k));
}

}  // namespace

std::vector<float> BulyanAggregator::aggregate(
    const common::GradientMatrix& grads, const GarContext& ctx) {
  check_grads(grads);
  const std::size_t n = grads.rows();
  obs::Span span("agg/bulyan", std::int64_t(n));
  const std::size_t m = std::min(ctx.assumed_byzantine, (n - 1) / 2);

  // Phase 1: iterative Krum. Repeatedly pick the gradient with the lowest
  // Krum score among the remaining set and move it to the selection set,
  // until theta = n - 2m gradients are selected. One packed pairwise
  // block is computed up front (Gram GEMM or direct loops) and reused
  // across every iteration; removals only flip the exclusion mask.
  const std::size_t theta = std::max<std::size_t>(1, n - 2 * m);
  const PairwiseDistances pd(grads);
  std::vector<char> excluded(n, 0);
  std::size_t remaining = n;
  selected_.clear();
  std::vector<double> row;
  while (selected_.size() < theta && remaining > 0) {
    // Krum neighborhood within the remaining set.
    const std::size_t k =
        std::max<std::size_t>(1, remaining > m + 2 ? remaining - m - 2 : 1);
    double best_score = std::numeric_limits<double>::max();
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (excluded[i]) continue;
      const double score = pd.krum_score(i, k, excluded, row);
      if (score < best_score) {
        best_score = score;
        best = i;
      }
    }
    selected_.push_back(best);
    excluded[best] = 1;
    --remaining;
  }

  // Phase 2: per coordinate, average the beta = theta - 2m selected values
  // closest to the coordinate median, read from the selected rows'
  // sorted column tiles.
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterAdmits,
             selected_.size());
  obs::count(obs::Stage::kFilter, obs::Counter::kFilterRejects,
             n - selected_.size());
  const std::size_t beta =
      std::max<std::size_t>(1, theta > 2 * m ? theta - 2 * m : 1);
  std::vector<float> out(grads.cols());
  vec::for_each_sorted_tile(grads, selected_, [&](const vec::SortedTile& t) {
    for (std::size_t c = 0; c < t.width; ++c)
      out[t.first_col + c] = median_window_mean(t, c, beta);
  });
  return out;
}

}  // namespace signguard::agg
