#pragma once
// One process's result: the object printed as the last stdout line.

#include <string>
#include <vector>

#include "analysis.h"
#include "workloads.h"

namespace signguard::e2e {

struct Report {
  bool correct = true;
  std::vector<std::string> problems;  // failed checks, for stderr
  std::size_t attempted = 0;          // rounds attempted
  std::size_t failed = 0;             // skipped, degraded or errored rounds
  Metrics metrics;
  Metrics info;  // sample counts and diagnostics, not gated

  void check(bool ok, const std::string& what);
  std::string json() const;
};

// Untraced closed loop for `seconds`: the end-to-end metrics.
Report measure(const Workload& w, double seconds);
// Untraced + two traced jobs + probes: the per-layer metrics. Writes a
// Chrome trace to `trace_file` unless it is empty.
Report trace(const Workload& w, const std::string& trace_file);

int run_selftest();

}  // namespace signguard::e2e
