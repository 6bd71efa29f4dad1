#pragma once
// Per-layer probes of public entry points (see probes.cpp).

#include "analysis.h"
#include "job.h"

namespace signguard::e2e {

// Trainer workloads: probes on the round `snap` captured from the job.
void run_probes(const Workload& w, const RoundSnapshot& snap, Metrics& out);

// table1_grid: the client-gradient probe at the grid model's shape.
void run_sweep_probes(Metrics& out);

}  // namespace signguard::e2e
