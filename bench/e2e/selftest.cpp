// --selftest: the metric arithmetic on fixed inputs, then a smoke-size
// pass (untraced and traced) of every workload.

#include <cstdio>
#include <cstring>
#include <numeric>

#include "job.h"
#include "report.h"

namespace signguard::e2e {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
}

void test_order_statistics() {
  std::vector<double> v(30);
  std::iota(v.begin(), v.end(), 1.0);  // 1..30, ten samples above 20
  expect(tail_value(v) == 20.0, "tail of 1..30 is the 11th largest");
  expect(tail_value({5.0, 1.0, 3.0}) == 5.0, "short tail falls back to max");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
}

void test_self_times() {
  using obs::Stage;
  obs::RoundCost c;
  const auto set = [&](Stage s, double ms) { c.stage_ms[std::size_t(s)] = ms; };
  set(Stage::kClientCompute, 5.0);
  set(Stage::kUplink, 1.0);
  set(Stage::kAggregate, 10.0);  // includes filter 3 and merge 2
  set(Stage::kFilter, 3.0);
  set(Stage::kMerge, 2.0);
  set(Stage::kEval, 4.0);
  expect(self_ms(c, Stage::kAggregate) == 5.0, "aggregate self time");
  expect(self_ms(c, Stage::kFilter) == 3.0, "filter self time");
  expect(attributed_ms(c) == 20.0, "attributed time counts nesting once");
  expect(unattributed_ms(25.0, c) == 5.0, "unattributed time");
  double self_sum = 0.0;
  for (std::size_t s = 0; s < obs::kNumStages; ++s)
    self_sum += self_ms(c, Stage(s));
  expect(self_sum + unattributed_ms(25.0, c) == 25.0,
         "self times plus unattributed equal the round wall");
}

void test_names() {
  expect(valid_metric_name("nn.client_grad_us"), "dotted name");
  expect(valid_metric_name("aggregators.rule_ms.Multi-Krum"), "dash name");
  expect(valid_metric_name("setup_s"), "underscore name");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name(".x"), "leading dot");
  expect(!valid_metric_name("a b"), "space");
  expect(!valid_metric_name("a/b"), "slash");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
}

void test_json_round_trip() {
  const Metrics m = {{"a", {0.1, "ms"}},
                     {"b.c", {1.0 / 3.0, "s"}},
                     {"tiny", {1e-300, "count"}},
                     {"neg", {-12.5, "%"}},
                     {"big", {123456789.125, "MB"}}};
  const Metrics back = parse_metrics_json(metrics_json(m));
  bool same = back.size() == m.size();
  for (const auto& [name, metric] : m) {
    const auto it = back.find(name);
    same = same && it != back.end() && it->second.unit == metric.unit &&
           std::memcmp(&it->second.value, &metric.value, sizeof(double)) == 0;
  }
  expect(same, "metrics JSON round-trips bit for bit");
  expect(parse_metrics_json("{}").empty(), "empty metrics object");
  bool threw = false;
  try {
    metrics_json({{"bad name", {1.0, "ms"}}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "writer refuses an invalid name");
}

void smoke_pass() {
  for (const std::string& name : workload_names()) {
    const auto t0 = Clock::now();
    const Workload w = make_workload(name, 7, Size::kSmoke, ".");
    const Report m = measure(w, 0.0);
    for (const std::string& p : m.problems) expect(false, name + ": " + p);
    for (const char* key : {"setup_s", "rounds_per_s", "round_ms_p50",
                            "time_to_target_s", "peak_rss_mb", "acc_best"})
      expect(m.metrics.count(key) == 1, name + " reports " + key);
    expect(m.failed == 0 && m.attempted > 0, name + " rounds all succeed");
    const Report t = trace(w, "");
    for (const std::string& p : t.problems) expect(false, name + ": " + p);
    expect(t.metrics.count("fl.unattributed_ms") == 1,
           name + " reports per-layer metrics");
    std::fprintf(stderr, "selftest: %s smoke pass %.1f s\n", name.c_str(),
                 seconds_since(t0));
  }
}

}  // namespace

int run_selftest() {
  const auto t0 = Clock::now();
  test_order_statistics();
  test_self_times();
  test_names();
  test_json_round_trip();
  smoke_pass();
  std::fprintf(stderr, "selftest: %s in %.1f s\n",
               failures == 0 ? "passed" : "FAILED", seconds_since(t0));
  return failures == 0 ? 0 : 1;
}

}  // namespace signguard::e2e
