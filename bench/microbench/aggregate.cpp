// aggregate suite: per-GAR server-side latency on the cohort grid
// n x {50, 256, 1024} x d x {100k, 1M} — the O(n^2 d) pairwise and
// O(n d log^2 n) coordinate-statistic blocks the Table I defenses pay
// every round — plus two speedups over the tests/oracles.h loops, both
// gated: the Gram pairwise kernel over the direct pair loops at n=256,
// d=1M, where vec::pairwise_dist2_packed is nearly all of Multi-Krum's
// time (the guard against a regression toward scalar pairwise loops),
// and TrMean over its per-column std::sort oracle at n=256, d=100k (the
// guard against the sorting network's compare-exchange loop falling
// back to scalar code).
//
// One pool thread: the numbers compare kernel structure (GEMM tiling vs
// scalar loops, sorting networks vs per-column sorts), not core counts.
// Shapes a rule cannot afford are skipped loudly (printed, never
// silently dropped): the O(n^2 d) and O(iters * n d) rules skip the
// 1024 x 1M cell, which only the O(n d) family (Mean/TrMean/Median/
// SignGuard) runs. --max-n skips the larger cohorts.
//
// Entries: params {backend, n, d}; backend "gram" for the library,
// "direct" and "sort" for the oracle loops, "gram_vs_direct" and
// "network_vs_sort" for the speedup rows (value = oracle time / library
// time, usec = library time).

#include <cstdlib>
#include <string>
#include <vector>

#include "common/vecops.h"
#include "fl/experiment.h"
#include "microbench.h"
#include "oracles.h"

namespace signguard::microbench {
namespace {

// Which rules can afford which cells. The 1024 x 1M cell (4 GB, ~10^12
// scalar flops for a pairwise block) is reserved for the O(n d) family.
bool runs_at(const std::string& gar, std::size_t n, std::size_t d) {
  const bool huge = n * d > std::size_t{256} * 1'000'000;
  if (!huge) return true;
  return gar == "Mean" || gar == "TrMean" || gar == "Median" ||
         gar == "SignGuard";
}

double time_gar(Run& run, const std::string& name,
                const common::GradientMatrix& m) {
  auto gar = fl::make_aggregator(name);
  Rng rng(7);
  agg::GarContext ctx;
  ctx.assumed_byzantine = m.rows() / 5;
  ctx.rng = &rng;
  return run.timer.time_usec([&] {
    auto out = gar->aggregate(m, ctx);
    // The result feeds the entry count so the call cannot be elided.
    if (out.empty()) std::abort();
  });
}

}  // namespace

void aggregate_suite(Run& run) {
  static const std::vector<std::string> kGars = {
      "Mean",       "TrMean", "Median", "GeoMed",
      "Multi-Krum", "Bulyan", "DnC",    "SignGuard"};
  // Shape-outer so at most one cohort matrix is resident (the 1024 x 1M
  // cell alone is 4 GB).
  for (const std::size_t d : {100'000ul, 1'000'000ul}) {
    const std::string dim = d >= 1'000'000 ? "1M" : "100k";
    for (const std::size_t n : {50ul, 256ul, 1024ul}) {
      if (!run.fits(n, "gar")) continue;
      const auto m = make_matrix(n, d);
      double trmean_usec = 0.0;
      for (const auto& gar : kGars) {
        if (!runs_at(gar, n, d)) {
          std::printf("%-8s %-14s skipped at n=%zu d=%zu (cost cap)\n",
                      "gar", gar.c_str(), n, d);
          continue;
        }
        const double usec = time_gar(run, gar, m);
        run.record("gar", gar, {{"backend", "gram"}, {"n", n}, {"d", d}},
                   usec, 1e6 / usec, "runs/s");
        if (gar == "TrMean") trmean_usec = usec;
      }

      // TrMean vs the oracle's per-column sort at the gated cell, with
      // the trim time_gar uses.
      if (n == 256 && d == 100'000) {
        const double sort_usec = run.timer.time_usec([&] {
          if (oracle::trimmed_mean(m, n / 5).empty()) std::abort();
        });
        run.record("gar", "TrMean", {{"backend", "sort"}, {"n", n}, {"d", d}},
                   sort_usec, 1e6 / sort_usec, "runs/s");
        run.record("speedup", "trmean_256x100k",
                   {{"backend", "network_vs_sort"}, {"n", n}, {"d", d}},
                   trmean_usec, sort_usec / trmean_usec, "x");
      }

      // Gram-vs-direct pairwise kernel wherever the direct loops are
      // affordable — n=256, d=1M is the gated pair.
      if (!((d == 100'000 && n <= 256) || (d == 1'000'000 && n == 256)))
        continue;
      const double direct_usec = run.timer.time_usec([&] {
        if (oracle::pairwise_dist2_packed(m).empty()) std::abort();
      });
      run.record("kernel", "pairwise_dist2",
                 {{"backend", "direct"}, {"n", n}, {"d", d}}, direct_usec,
                 1e6 / direct_usec, "runs/s");
      const double gram_usec = run.timer.time_usec([&] {
        if (vec::pairwise_dist2_packed(m).empty()) std::abort();
      });
      run.record("kernel", "pairwise_dist2",
                 {{"backend", "gram"}, {"n", n}, {"d", d}}, gram_usec,
                 1e6 / gram_usec, "runs/s");
      run.record("speedup", "pairwise_dist2_" + std::to_string(n) + "x" + dim,
                 {{"backend", "gram_vs_direct"}, {"n", n}, {"d", d}},
                 gram_usec, direct_usec / gram_usec, "x");
    }
  }
}

}  // namespace signguard::microbench
