#include "common/shard_stats.h"

#include <cassert>

#include "common/parallel.h"

namespace signguard::common {

void accumulate_row(ShardPartial& p, std::span<const float> row, double w) {
  if (p.sum.empty()) p.sum.assign(row.size(), 0.0);
  assert(p.sum.size() == row.size());
  parallel_chunks(row.size(),
                  [&](std::size_t begin, std::size_t end, std::size_t) {
                    for (std::size_t j = begin; j < end; ++j)
                      p.sum[j] += w * double(row[j]);
                  });
  p.weight += w;
}

std::vector<float> finalize_mean(const ShardPartial& p) {
  std::vector<float> out(p.sum.size(), 0.0f);
  if (p.weight == 0.0) return out;
  parallel_chunks(out.size(),
                  [&](std::size_t begin, std::size_t end, std::size_t) {
                    for (std::size_t j = begin; j < end; ++j)
                      out[j] = float(p.sum[j] / p.weight);
                  });
  return out;
}

}  // namespace signguard::common
