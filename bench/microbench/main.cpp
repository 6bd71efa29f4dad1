// microbench: the kernel, codec, aggregation, fault, attack and
// telemetry measurements behind the committed BENCH_<suite>.json files
// and the CI gates.
//
// Usage:
//   ./microbench [--suites=LIST] [--out=DIR] [--min-ms=N] [--max-n=N]
//
// Runs the selected suites in table order. Each suite starts from the
// SIGNGUARD_THREADS pool resized to its own pool size, with tracing
// off, and its timer at its own budget unless --min-ms overrides it.
// After each suite, DIR/BENCH_<suite>.json is written; after all of
// them, every gate whose suite ran is checked against the recorded
// entries. A malformed value or an unknown flag prints
// "--flag=value: reason" and exits 1 before any suite runs; a failed
// self-check or gate exits 1 after the JSON is written.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>

#include "common/format.h"
#include "common/parallel.h"
#include "fl/sweep.h"
#include "microbench.h"
#include "obs/trace.h"

namespace signguard::microbench {
namespace {

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

// "key=value key=value": the printed row's params column, and what a
// gate matches.
std::string params_text(const Params& params) {
  std::string out;
  for (const Param& p : params)
    out += (out.empty() ? "" : " ") + p.key + "=" + p.text;
  return out;
}

}  // namespace

void Run::record(std::string group, std::string name, Params params,
                 double usec, double value, std::string unit) {
  std::printf("%-14s %-32s %-30s %12.1f us %14.6g %s\n", group.c_str(),
              name.c_str(), params_text(params).c_str(), usec, value,
              unit.c_str());
  entries.push_back({std::move(group), std::move(name), std::move(params),
                     usec, value, std::move(unit)});
}

bool Run::check(bool pass, const std::string& what) {
  if (!pass) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ok = ok && pass;
  return pass;
}

bool Run::fits(std::size_t n, const char* cell) {
  if (max_n == 0 || n <= max_n) return true;
  std::printf("%-14s skipped (--max-n=%zu < n=%zu)\n", cell, max_n, n);
  return false;
}

common::GradientMatrix make_matrix(std::size_t n, std::size_t d) {
  common::GradientMatrix m(n, d);
  common::parallel_for(n, [&](std::size_t i) {
    const auto row = m.row(i);
    for (std::size_t j = 0; j < d; ++j) row[j] = cohort_value(i, j, d);
  });
  return m;
}

namespace {

struct Suite {
  const char* name;
  void (*run)(Run&);
  std::size_t pool;  // pool size; 0: the SIGNGUARD_THREADS pool
  double budget_ms;  // timer budget per measurement (0: untimed suite)
  std::size_t warmup, batch;
};

const Suite kSuites[] = {
    {"train", train_suite, 0, 80, 1, 8},
    {"aggregate", aggregate_suite, 1, 200, 0, 1},
    {"comm", comm_suite, 1, 120, 1, 1},
    {"shard", shard_suite, 1, 200, 0, 1},
    {"fault", fault_suite, 1, 0, 0, 1},
    {"attack", attack_suite, 1, 0, 0, 1},
    {"obs", obs_suite, 1, 200, 0, 1},
};
constexpr std::size_t kNumSuites = std::size(kSuites);

// One CI threshold on one recorded entry, found by suite, group, name
// and printed params. The bound applies to the entry's value, except
// that a bound in seconds applies to its usec.
struct Gate {
  const char* suite;
  const char* group;
  const char* name;
  const char* params;
  std::size_t cohort;  // clients in the gated cell; --max-n below skips
  bool at_least;       // value >= bound; false: value <= bound
  double bound;
  const char* unit;
};

// Derivations: docs/ARCHITECTURE.md "Measuring".
const Gate kGates[] = {
    {"train", "speedup", "cnn_conv", "backend=tiled_vs_ref", 0, true, 1.48,
     "x"},
    {"train", "speedup", "flagship_mlp", "backend=tiled_vs_ref", 0, true, 5.79,
     "x"},
    {"train", "speedup", "paper_cnn_conv", "backend=layer_vs_oracle", 0, true,
     19.90, "x"},
    {"aggregate", "speedup", "pairwise_dist2_256x1M",
     "backend=gram_vs_direct n=256 d=1000000", 256, true, 2.01, "x"},
    {"aggregate", "speedup", "trmean_256x100k",
     "backend=network_vs_sort n=256 d=100000", 256, true, 4.96, "x"},
    {"comm", "ratio", "sign1", "d=1000000 threads=1", 0, true, 16, "x"},
    {"comm", "decode", "sign1", "d=1000000 threads=1", 0, true, 1.0, "GB/s"},
    {"comm", "filter-bytes", "sign1", "d=1000000 threads=1", 0, true, 5, "x"},
    {"comm", "round-speedup", "sign1", "d=1000000 threads=1", 0, true, 1.15,
     "x"},
    {"shard", "sharded", "Multi-Krum", "n=4096 d=100000 shards=16", 4096,
     false, 120, "s"},
    {"obs", "bound", "disabled_overhead", "", 0, false, 2, "%"},
    {"attack", "scoreboard", "adaptive_gap", "", 0, true, 10, "pts"},
    {"attack", "scoreboard", "signguard_worstcase_acc", "", 0, true, 85, "%"},
};

// %.9g, or null for a non-finite value (JSON has no inf/nan).
std::string json_num(double v) {
  return std::isfinite(v) ? common::fmt_g9(v) : "null";
}

bool write_json(const std::string& path, const char* suite,
                const std::vector<Entry>& entries) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"schema\": \"signguard/microbench/v1\",\n"
      << "  \"suite\": " << quoted(suite) << ",\n"
      << "  \"threads\": " << common::thread_count() << ",\n"
      << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "    {\"group\": " << quoted(e.group)
        << ", \"name\": " << quoted(e.name) << ", \"params\": {";
    for (std::size_t k = 0; k < e.params.size(); ++k) {
      const Param& p = e.params[k];
      out << (k ? ", " : "") << quoted(p.key) << ": "
          << (p.label ? quoted(p.text) : p.text);
    }
    out << "}, \"usec\": " << json_num(e.usec)
        << ", \"value\": " << json_num(e.value)
        << ", \"unit\": " << quoted(e.unit) << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu entries)\n", path.c_str(), entries.size());
  return true;
}

// Checks every gate against `ran` (suite name -> its entries, for the
// suites that ran).
bool check_gates(const std::map<std::string, std::vector<Entry>>& ran,
                 std::size_t max_n) {
  std::printf("== gates ==\n");
  bool ok = true;
  for (const Gate& g : kGates) {
    char row[96];
    std::snprintf(row, sizeof row, "%s %s/%s [%s]", g.suite, g.group, g.name,
                  g.params);
    const auto suite = ran.find(g.suite);
    if (suite == ran.end() || (max_n != 0 && g.cohort > max_n)) {
      std::printf("%-82s skipped\n", row);
      continue;
    }
    const auto& entries = suite->second;
    const auto e = std::find_if(entries.begin(), entries.end(),
                                [&](const Entry& x) {
                                  return x.group == g.group &&
                                         x.name == g.name &&
                                         params_text(x.params) == g.params;
                                });
    if (e == entries.end()) {
      std::fprintf(stderr, "FAIL: gate %s: no such entry\n", row);
      ok = false;
      continue;
    }
    const double got =
        std::strcmp(g.unit, "s") == 0 ? e->usec * 1e-6 : e->value;
    const bool pass = g.at_least ? got >= g.bound : got <= g.bound;
    std::printf("%-82s %.4g %s %s %.4g  %s\n", row, got, g.unit,
                g.at_least ? ">=" : "<=", g.bound, pass ? "ok" : "FAIL");
    if (!pass)
      std::fprintf(stderr, "FAIL: gate %s: %.4g %s, bound %s %.4g\n", row,
                   got, g.unit, g.at_least ? ">=" : "<=", g.bound);
    ok = ok && pass;
  }
  return ok;
}

}  // namespace
}  // namespace signguard::microbench

int main(int argc, char** argv) {
  using namespace signguard;
  using namespace signguard::microbench;
  std::vector<bool> selected(kNumSuites, false);
  std::string out_dir;
  std::size_t min_ms = 0, max_n = 0;
  bool help = false;
  std::string all;
  for (const Suite& s : kSuites) (all += all.empty() ? "" : ",") += s.name;
  const auto count = [](std::size_t& n) {
    return [&n](const std::string& v) { n = fl::parse_count(v); };
  };
  const std::vector<fl::CliFlag> flags = {
      {"suites", "LIST", all, "suites to run, in table order",
       [&](const std::string& v) {
         selected.assign(kNumSuites, false);
         for (std::size_t begin = 0, end = 0; begin <= v.size();
              begin = end + 1) {
           end = std::min(v.find(',', begin), v.size());
           const std::string name = v.substr(begin, end - begin);
           std::size_t s = 0;
           while (s < kNumSuites && name != kSuites[s].name) ++s;
           if (s == kNumSuites)
             throw std::invalid_argument(quoted(name) +
                                         " is not a suite (known: " + all +
                                         ")");
           selected[s] = true;
         }
       }},
      {"out", "DIR", ".", "write DIR/BENCH_<suite>.json",
       [&](const std::string& v) {
         if (!std::filesystem::is_directory(v))
           throw std::invalid_argument(quoted(v) + " is not a directory");
         out_dir = v;
       }},
      {"min-ms", "N", "0",
       "time budget per measurement, ms (0 = each suite's own)",
       count(min_ms)},
      {"max-n", "N", "0",
       "skip aggregate and shard cells of more than N clients\n(0 = no cap)",
       count(max_n)},
      {"help", "", "", "this text", [&](const std::string&) { help = true; }},
  };
  bench::parse_flags(argc, argv, flags);
  if (help) {
    std::printf("microbench: the BENCH_<suite>.json measurements and the CI "
                "gates.\n\n%s",
                fl::flags_help(flags).c_str());
    return 0;
  }

  bench::banner("microbench", fl::scale_from_env());
  std::map<std::string, std::vector<Entry>> ran;
  bool ok = true;
  for (std::size_t s = 0; s < kNumSuites; ++s) {
    if (!selected[s]) continue;
    const Suite& suite = kSuites[s];
    std::printf("== %s ==\n", suite.name);
    common::set_thread_count(suite.pool);
    obs::set_trace_enabled(false);
    Run run(obs::StopwatchReporter(min_ms ? double(min_ms) : suite.budget_ms,
                                   suite.warmup, suite.batch),
            max_n);
    try {
      suite.run(run);
    } catch (const std::exception& e) {
      run.check(false, std::string(suite.name) + " suite aborted: " +
                           e.what());
    }
    ok = write_json(out_dir + "/BENCH_" + suite.name + ".json", suite.name,
                    run.entries) &&
         run.ok && ok;
    ran[suite.name] = std::move(run.entries);
    std::printf("\n");
  }
  ok = check_gates(ran, max_n) && ok;
  return ok ? 0 : 1;
}
