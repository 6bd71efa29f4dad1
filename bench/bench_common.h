#pragma once
// Shared plumbing for the bench binaries: strict flag parsing on
// fl::CliFlag (the paper benches' --dataset=/--defense=/--attack=
// filters re-run single rows or cells), the scale banner, and
// wall-clock reporting.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fl/experiment.h"
#include "fl/sweep.h"

namespace signguard::bench {

// Applies `flags` to argv; a malformed value or an unknown flag (any
// flag at all when `flags` is empty) prints "--flag=value: reason" and
// exits 1 before the bench does any work.
inline void parse_flags(int argc, char** argv,
                        const std::vector<fl::CliFlag>& flags) {
  try {
    fl::apply_flags(flags, std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
}

// "--name=VALUE", repeatable: narrows `items` (the bench's full list) to
// the values given, kept in list order. A value not in the full list is
// rejected with the list.
inline fl::CliFlag filter_flag(std::string name,
                               std::vector<std::string>& items) {
  std::string known;
  for (const auto& item : items) (known += known.empty() ? "" : ", ") += item;
  return {std::move(name), "NAME", "", "one of: " + known,
          [&items, all = items, known,
           picked = std::vector<std::string>()](const std::string& v) mutable {
            if (std::find(all.begin(), all.end(), v) == all.end())
              throw std::invalid_argument("\"" + v + "\" is not one of: " +
                                          known);
            picked.push_back(v);
            items.clear();
            for (const auto& item : all)
              if (std::find(picked.begin(), picked.end(), item) != picked.end())
                items.push_back(item);
          }};
}

inline void banner(const char* experiment, fl::Scale scale) {
  std::printf("== %s ==\n", experiment);
  std::printf("%s\n\n", fl::runtime_summary(scale).c_str());
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// The standard closing line of the paper-table binaries.
inline void report_wall(const Stopwatch& w) {
  std::printf("total wall time: %.1fs\n", w.seconds());
}

}  // namespace signguard::bench

namespace signguard::obs {

// The microbench suites' best-of-repeats timer. After `warmup`
// unmeasured runs, repeats batches of `batch` ops until `min_ms` of
// budget is spent, keeping the fastest per-op batch average — expensive
// ops naturally get one measurement, cheap ones repeat until scheduler
// noise cannot dominate. Wall time only; the deterministic work-counter
// plane lives in src/obs/metrics.h.
class StopwatchReporter {
 public:
  explicit StopwatchReporter(double min_ms, std::size_t warmup = 0,
                             std::size_t batch = 1)
      : min_ms_(min_ms), warmup_(warmup), batch_(batch < 1 ? 1 : batch) {}

  // Best single-op wall time in microseconds.
  template <class F>
  double time_usec(F&& op) const {
    for (std::size_t i = 0; i < warmup_; ++i) op();
    double best = 1e300;
    repeat_for(op, best, min_ms_);
    return best;
  }

  // Best single-op wall times of `a` and of `b`, each given the budget
  // in four alternating slices, so a slow or fast spell of the host
  // lands on both and their ratio follows the ops, not the moment each
  // was measured.
  template <class A, class B>
  std::pair<double, double> time_usec_pair(A&& a, B&& b) const {
    for (std::size_t i = 0; i < warmup_; ++i) {
      a();
      b();
    }
    double best_a = 1e300, best_b = 1e300;
    for (int slice = 0; slice < 4; ++slice) {
      repeat_for(a, best_a, min_ms_ / 4);
      repeat_for(b, best_b, min_ms_ / 4);
    }
    return {best_a, best_b};
  }

 private:
  // Times batches of `op` until `ms` is spent (at least one batch),
  // keeping the fastest per-op average in `best`.
  template <class F>
  void repeat_for(F& op, double& best, double ms) const {
    bench::Stopwatch budget;
    do {
      bench::Stopwatch w;
      for (std::size_t i = 0; i < batch_; ++i) op();
      best = std::min(best, w.seconds() * 1e6 / double(batch_));
    } while (budget.seconds() * 1e3 < ms);
  }

  double min_ms_;
  std::size_t warmup_;
  std::size_t batch_;
};

}  // namespace signguard::obs
