#pragma once
// The microbench harness: one binary (`microbench`), seven suites —
// train, aggregate, comm, shard, fault, attack, obs — each a function
// that records entries into its Run. main.cpp owns everything the
// suites share: the flags, the per-suite pool size and time budget,
// the one JSON writer (one BENCH_<suite>.json per suite, schema
// signguard/microbench/v1) and the CI gate table checked against the
// recorded entries. docs/ARCHITECTURE.md "Measuring" documents the
// suites, the schema and the gates.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/gradient_matrix.h"
#include "common/hash.h"

namespace signguard::microbench {

// One entry parameter: a size (a JSON number) or a label (a JSON
// string), printed as key=value.
struct Param {
  Param(std::string k, std::size_t v)
      : key(std::move(k)), text(std::to_string(v)) {}
  Param(std::string k, std::string v)
      : key(std::move(k)), text(std::move(v)), label(true) {}
  std::string key, text;
  bool label = false;
};
using Params = std::vector<Param>;

// One measurement. `usec` is the wall time of one timed operation (0
// when the entry times none); `value` is in `unit`.
struct Entry {
  std::string group, name;
  Params params;
  double usec = 0.0;
  double value = 0.0;
  std::string unit;
};

// What a suite sees of the run: its timer, the --max-n cohort cap, and
// the sinks for entries and self-check failures.
class Run {
 public:
  Run(obs::StopwatchReporter timer, std::size_t max_n)
      : timer(timer), max_n(max_n) {}

  // Appends one entry and prints it as a row.
  void record(std::string group, std::string name, Params params,
              double usec, double value, std::string unit);
  // An entry without params that times no single op.
  void record(std::string group, std::string name, double value,
              std::string unit) {
    record(std::move(group), std::move(name), {}, 0.0, value,
           std::move(unit));
  }
  // A self-check: a false `ok` prints "FAIL: <what>" and fails the run
  // (the suite carries on, so its entries are still written).
  bool check(bool ok, const std::string& what);
  // Whether a cell of `n` clients fits under --max-n; prints the skip.
  bool fits(std::size_t n, const char* cell);

  obs::StopwatchReporter timer;
  const std::size_t max_n;  // 0: no cap
  std::vector<Entry> entries;
  bool ok = true;
};

// Deterministic cheap fill: the value of client `i`, coordinate `j` of
// an n x d cohort is a splitmix64 hash of (i, j), so inputs do not
// depend on how fast an RNG can stream a 4 GB matrix and any shard of
// rows can be regenerated alone.
inline float cohort_value(std::size_t i, std::size_t j, std::size_t d) {
  const std::uint64_t h = common::splitmix64(i * d + j);
  return static_cast<float>((double(h >> 11) * 0x1.0p-53 - 0.5) * 2.0 + 0.1);
}
common::GradientMatrix make_matrix(std::size_t n, std::size_t d);

void train_suite(Run& run);
void aggregate_suite(Run& run);
void comm_suite(Run& run);
void shard_suite(Run& run);
void fault_suite(Run& run);
void attack_suite(Run& run);
void obs_suite(Run& run);

}  // namespace signguard::microbench
