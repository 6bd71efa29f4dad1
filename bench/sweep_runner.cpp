// sweep_runner: declarative scenario-sweep CLI over the fl::run_sweep
// engine. Expands a cartesian grid (workload × attack × GAR × partition
// skew × Byzantine fraction × participation × failure injection, plus
// the optional codec, shard, chaos, quorum and adversary axes), runs
// every scenario concurrently on the SIGNGUARD_THREADS pool, and streams
// one JSONL line per scenario to stdout (or --out=FILE) in canonical
// order — bit-identical for any thread count. Progress, the banner and
// the Table-I-style summary go to stderr so `sweep_runner > run.jsonl`
// stays clean.
//
// Flags are "--name=VALUE" (lists comma-separated) or bare "--name"; the
// defaults form a 24-scenario smoke grid. `sweep_runner --help` lists
// every flag with its default, generated from the grid's axis registry
// (fl::grid_flags) and the run flags below. A malformed value or an
// unknown flag prints "--flag=value: reason" and exits 1 before anything
// runs. --list prints the expanded scenario ids without running them.
// Scale via SIGNGUARD_SCALE=smoke|default|full (rounds=0 resolves to it).

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "bench_common.h"
#include "common/parallel.h"
#include "fl/sweep.h"
#include "obs/trace.h"

namespace {

using namespace signguard;

// Everything sweep_runner reads from argv besides the grid.
struct RunArgs {
  fl::SweepOptions opts;
  std::string out, trace_dir;
  bool list = false, summary = false, obs = false, stage_profile = false,
       help = false;
};

// The run and output flags, in the same shape as the grid's registry.
std::vector<fl::CliFlag> run_flags(RunArgs& a) {
  const auto on = [](bool& b) { return [&b](const std::string&) { b = true; }; };
  const auto count = [](std::size_t& n) {
    return [&n](const std::string& v) { n = fl::parse_count(v); };
  };
  const auto text = [](std::string& s) {
    return [&s](const std::string& v) { s = v; };
  };
  return {
      {"checkpoint-dir", "DIR", "", "per-scenario checkpoint files in DIR",
       text(a.opts.checkpoint_dir)},
      {"checkpoint-every", "N", "1", "checkpoint cadence, rounds",
       count(a.opts.checkpoint_every)},
      {"resume", "", "", "continue from existing checkpoints",
       on(a.opts.resume)},
      {"halt-after-round", "N", "0", "simulated kill after N rounds (0 = off)",
       count(a.opts.halt_after_round)},
      {"out", "FILE", "", "JSONL to FILE instead of stdout", text(a.out)},
      {"timing", "", "", "include wall/cpu seconds in the JSONL",
       on(a.opts.include_timing)},
      {"no-round-checksums", "", "", "omit the per-round checksum arrays",
       [&a](const std::string&) { a.opts.capture_rounds = false; }},
      {"summary", "", "", "Table-I-style text summary on stderr",
       on(a.summary)},
      {"list", "", "", "print expanded scenario ids, run nothing",
       on(a.list)},
      {"obs", "", "",
       "per-round deterministic work counters in the JSONL\n"
       "(\"obs\" block; bit-identical across SIGNGUARD_THREADS)",
       on(a.obs)},
      {"profile", "", "",
       "per-scenario per-stage cost table on stderr (implies\n"
       "--obs, plus coordinator stage timing in the JSONL;\n"
       "--profile=VALUE is the model profile above)",
       on(a.stage_profile)},
      {"stage-profile", "", "", "alias of bare --profile",
       on(a.stage_profile)},
      {"trace-out", "DIR", "",
       "timing spans (as if SIGNGUARD_TRACE=1) to DIR/trace.json\n"
       "(Perfetto-loadable) + DIR/metrics.prom",
       text(a.trace_dir)},
      {"help", "", "", "this text", on(a.help)},
  };
}

// --profile: one text table per scenario, stages down, summed over the
// scenario's rounds. ms/round comes from the coordinator's StageScope
// timings (nondeterministic); the work columns are the deterministic
// counter totals, nonzero ones only so the table stays readable.
void print_stage_profile(const fl::ScenarioResult& r) {
  if (r.obs_rounds.empty()) return;
  obs::RoundCost tot;
  for (const auto& rc : r.obs_rounds) {
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
      tot.stage_ms[s] += rc.stage_ms[s];
      for (std::size_t c = 0; c < obs::kNumCounters; ++c)
        tot.counters[s][c] += rc.counters[s][c];
    }
  }
  const double rounds = double(r.obs_rounds.size());
  std::fprintf(stderr, "\n-- stage profile: %s (%zu rounds) --\n",
               r.spec.id().c_str(), r.obs_rounds.size());
  std::fprintf(stderr, "  %-16s %12s  %s\n", "stage", "ms/round",
               "work (run totals)");
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    std::string work;
    for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
      if (tot.counters[s][c] == 0) continue;
      work += work.empty() ? "" : "  ";
      work += obs::to_string(obs::Counter(c));
      work += "=" + std::to_string(tot.counters[s][c]);
    }
    if (tot.stage_ms[s] == 0.0 && work.empty()) continue;
    std::fprintf(stderr, "  %-16s %12.3f  %s\n",
                 obs::to_string(obs::Stage(s)), tot.stage_ms[s] / rounds,
                 work.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace signguard;
  fl::SweepGrid grid;
  RunArgs run;
  const std::vector<fl::CliFlag> grid_flags = fl::grid_flags(grid);
  const std::vector<fl::CliFlag> own_flags = run_flags(run);
  std::vector<fl::CliFlag> flags = grid_flags;
  flags.insert(flags.end(), own_flags.begin(), own_flags.end());
  try {
    fl::apply_flags(flags, std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (run.help) {
    std::fprintf(stderr,
                 "sweep_runner: scenario-sweep CLI over fl::run_sweep.\n\n"
                 "Grid (LIST = comma-separated, one scenario per "
                 "combination):\n%s\nRun and output:\n%s\n"
                 "Scale via SIGNGUARD_SCALE=smoke|default|full. JSONL "
                 "streams to stdout in\ncanonical id order, bit-identical "
                 "for any SIGNGUARD_THREADS.\n",
                 fl::flags_help(grid_flags).c_str(),
                 fl::flags_help(own_flags).c_str());
    return 0;
  }
  fl::SweepOptions& opts = run.opts;
  opts.scale = fl::scale_from_env();

  std::vector<fl::ScenarioSpec> specs = grid.expand();
  std::fprintf(stderr, "== sweep_runner: %zu scenarios ==\n%s\n",
               specs.size(), fl::runtime_summary(opts.scale).c_str());

  if (run.list) {
    for (const auto& s : specs) std::printf("%s\n", s.id().c_str());
    return 0;
  }

  std::ofstream out_file;
  if (!run.out.empty()) {
    out_file.open(run.out);
    if (!out_file) {
      std::fprintf(stderr, "cannot open --out=%s\n", run.out.c_str());
      return 1;
    }
  }

  opts.jsonl = run.out.empty() ? &std::cout
                               : static_cast<std::ostream*>(&out_file);
  opts.obs_counters = run.obs || run.stage_profile;
  opts.obs_timing = run.stage_profile;
  if (!run.trace_dir.empty()) obs::set_trace_enabled(true);
  opts.progress = [](std::size_t done, std::size_t total,
                     const fl::ScenarioResult& r) {
    std::fprintf(stderr, "[%zu/%zu] %s  best=%.2f%%%s%s\n", done, total,
                 r.spec.id().c_str(), r.best_accuracy,
                 r.error.empty() ? "" : "  ERROR: ",
                 r.error.c_str());
  };

  bench::Stopwatch total;
  const auto results = fl::run_sweep(std::move(specs), opts);

  std::size_t failed = 0;
  for (const auto& r : results) failed += r.error.empty() ? 0 : 1;
  if (run.summary)
    std::fprintf(stderr, "\n%s", fl::summary_table(results).c_str());
  if (run.stage_profile)
    for (const auto& r : results) print_stage_profile(r);
  if (!run.trace_dir.empty()) {
    const std::string& trace_dir = run.trace_dir;
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    std::ofstream tf(trace_dir + "/trace.json");
    tf << obs::chrome_trace_json();
    std::ofstream pf(trace_dir + "/metrics.prom");
    obs::write_prometheus(pf);
    if (!tf || !pf) {
      std::fprintf(stderr, "cannot write --trace-out=%s\n", trace_dir.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s/trace.json (%llu dropped), %s/metrics.prom\n",
                 trace_dir.c_str(),
                 static_cast<unsigned long long>(obs::trace_dropped()),
                 trace_dir.c_str());
  }
  std::fprintf(stderr,
               "%zu scenarios (%zu failed), wall %.1fs, threads=%zu\n",
               results.size(), failed, total.seconds(),
               common::thread_count());
  // Any failed scenario fails the run: scripts and CI must not stay
  // green while part of the grid errors out.
  return failed > 0 ? 1 : 0;
}
