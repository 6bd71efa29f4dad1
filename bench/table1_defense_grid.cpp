// Table I reproduction: best test accuracy for every (defense, attack)
// pair on the four workloads, IID data, n=50 clients, 20% Byzantine —
// expressed as one declarative grid and executed concurrently by the
// fl::run_sweep engine.
//
// Paper reference (Table I): state-of-the-art attacks (LIE, Min-Max,
// Min-Sum, ByzMean) break the median/distance-based defenses while the
// SignGuard family stays within a point or two of the no-attack baseline.
//
// Usage: table1_defense_grid [--dataset=MNIST-like] [--defense=SignGuard]
//                            [--attack=LIE] [--jsonl=FILE]
// Each filter is repeatable and must name a row of the table; a typo
// exits 1 before anything runs.
// Scale via SIGNGUARD_SCALE=smoke|default|full; concurrency via
// SIGNGUARD_THREADS.

#include <fstream>

#include "bench_common.h"
#include "fl/sweep.h"

int main(int argc, char** argv) {
  using namespace signguard;
  fl::SweepGrid grid;
  grid.attacks = fl::table1_attacks();
  grid.gars = fl::table1_defenses();
  std::vector<std::string> datasets;
  for (const auto kind : fl::all_workloads())
    datasets.push_back(fl::workload_name(kind));
  std::string jsonl_path;
  bench::parse_flags(argc, argv,
                     {bench::filter_flag("dataset", datasets),
                      bench::filter_flag("defense", grid.gars),
                      bench::filter_flag("attack", grid.attacks),
                      {"jsonl", "FILE", "", "sweep JSONL to FILE",
                       [&](const std::string& v) { jsonl_path = v; }}});
  grid.workloads.clear();
  for (const auto& name : datasets)
    grid.workloads.push_back(fl::workload_kind_from_name(name));

  const auto scale = fl::scale_from_env();
  bench::banner("Table I: defenses x attacks, IID, 20% Byzantine", scale);
  std::ofstream jsonl_file;
  if (!jsonl_path.empty()) {
    jsonl_file.open(jsonl_path);
    if (!jsonl_file) {
      std::fprintf(stderr, "cannot open --jsonl=%s\n", jsonl_path.c_str());
      return 1;
    }
  }

  fl::SweepOptions opts;
  opts.scale = scale;
  opts.capture_rounds = false;
  if (jsonl_file.is_open()) opts.jsonl = &jsonl_file;
  opts.progress = [](std::size_t done, std::size_t total,
                     const fl::ScenarioResult& r) {
    std::fprintf(stderr, "[%zu/%zu] %s\n", done, total, r.spec.id().c_str());
  };

  bench::Stopwatch total;
  const auto results = fl::run_sweep(grid.expand(), opts);
  std::printf("%s", fl::summary_table(results).c_str());
  bench::report_wall(total);
  return 0;
}
