// End-to-end FL benchmark: one workload, one seed, one process.
//
//   e2e_bench --workload=NAME --seed=N --seconds=S [--trace=1]
//             [--trace-file=PATH] [--workdir=DIR]
//   e2e_bench --selftest
//
// Untraced (default): runs complete jobs of the workload back to back
// (a closed loop: each round starts when the previous one ends) until
// the next job would overrun --seconds, plus set-up-only repeats so
// set-up time is a median of at least kSetupSamples, and reports the
// end-to-end metrics.
//
// --trace=1: a traced job that also snapshots a round (and warms the
// process up), one untraced job, a traced job (MetricsRegistry timing +
// SIGNGUARD_TRACE spans, written as a Chrome trace to --trace-file), and
// the layer probes on the snapshot; reports the per-layer metrics.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..},
//    "info": {..}}
// where "attempted" counts rounds and "failed" the skipped, degraded or
// errored ones. Diagnostics go to stderr.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis.h"
#include "common/parallel.h"
#include "job.h"
#include "obs/trace.h"
#include "probes.h"
#include "report.h"

namespace signguard::e2e {
namespace {

constexpr std::size_t kSetupSamples = 7;

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

// Repeats `job` while another one is predicted to fit in `seconds`.
template <class F>
void closed_loop(double seconds, F&& job) {
  const auto t0 = Clock::now();
  std::size_t jobs = 0;
  do {
    job();
    ++jobs;
  } while (seconds_since(t0) * double(jobs + 1) / double(jobs) <= seconds);
}

bool same_counters(const std::vector<obs::RoundCost>& a,
                   const std::vector<obs::RoundCost>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r)
    if (a[r].round != b[r].round ||
        std::memcmp(a[r].counters, b[r].counters, sizeof a[r].counters) != 0)
      return false;
  return true;
}

std::uint64_t counter_total(const std::vector<const obs::RoundCost*>& rounds,
                            obs::Counter c) {
  std::uint64_t sum = 0;
  for (const obs::RoundCost* r : rounds)
    for (std::size_t s = 0; s < obs::kNumStages; ++s)
      sum += r->counters[s][std::size_t(c)];
  return sum;
}

// Per-round stage means and work counters over a set of traced rounds.
void stage_metrics(const std::vector<const obs::RoundCost*>& rounds,
                   Metrics& out) {
  using obs::Counter;
  using obs::Stage;
  const double n = double(std::max<std::size_t>(rounds.size(), 1));
  const auto stage_mean = [&](Stage s) {
    double sum = 0.0;
    for (const obs::RoundCost* r : rounds) sum += self_ms(*r, s);
    return sum / n;
  };
  // Mean over the rounds where the stage ran at all (eval, checkpoint).
  const auto occasional_mean = [&](Stage s, double* count_out) {
    double sum = 0.0, k = 0.0;
    for (const obs::RoundCost* r : rounds)
      if (r->stage_ms[std::size_t(s)] > 0.0) {
        sum += r->stage_ms[std::size_t(s)];
        k += 1.0;
      }
    if (count_out != nullptr) *count_out = k;
    return k > 0.0 ? sum / k : 0.0;
  };
  const double client_ms = stage_mean(Stage::kClientCompute);
  out["nn.client_compute_ms"] = {client_ms, "ms"};
  double flops = 0.0;
  for (const obs::RoundCost* r : rounds)
    flops += double(r->counters[std::size_t(Stage::kClientCompute)]
                               [std::size_t(Counter::kGemmFlops)]);
  out["nn.gemm_gflops"] = {
      client_ms > 0.0 ? flops / (client_ms * n * 1e-3) * 1e-9 : 0.0,
      "GFLOP/s"};
  out["fl.eval_ms"] = {occasional_mean(Stage::kEval, nullptr), "ms"};
  double saves = 0.0;
  out["fl.checkpoint_ms"] = {occasional_mean(Stage::kCheckpoint, &saves),
                             "ms"};
  out["fl.checkpoint_mb"] = {
      saves > 0.0
          ? double(counter_total(rounds, Counter::kCheckpointBytes)) / saves *
                1e-6
          : 0.0,
      "MB"};
  out["comm.uplink_ms"] = {stage_mean(Stage::kUplink), "ms"};
  out["core.filter_ms"] = {stage_mean(Stage::kFilter), "ms"};
  out["aggregators.aggregate_self_ms"] = {stage_mean(Stage::kAggregate),
                                          "ms"};
  out["aggregators.merge_ms"] = {stage_mean(Stage::kMerge), "ms"};
  out["comm.wire_mb_per_round"] = {
      double(counter_total(rounds, Counter::kWireBytes)) / n * 1e-6, "MB"};
  out["comm.rows_decoded_per_round"] = {
      double(counter_total(rounds, Counter::kRowsDecoded)) / n, "count"};
  out["comm.decode_rejects"] = {
      double(counter_total(rounds, Counter::kDecodeRejects)), "count"};
  out["core.filter_admits"] = {
      double(counter_total(rounds, Counter::kFilterAdmits)) / n, "count"};
  out["core.filter_rejects"] = {
      double(counter_total(rounds, Counter::kFilterRejects)) / n, "count"};
}

// Every per-layer metric, at 0 where it does not apply to a workload.
Metrics per_layer_defaults() {
  Metrics m;
  const char* const kNames[][2] = {
      {"nn.client_compute_ms", "ms"},      {"nn.client_grad_us", "us"},
      {"nn.gemm_gflops", "GFLOP/s"},       {"data.synth_s", "s"},
      {"fl.run_prologue_s", "s"},          {"fl.eval_ms", "ms"},
      {"fl.checkpoint_ms", "ms"},          {"fl.checkpoint_mb", "MB"},
      {"fl.chaos_uplink_us", "us"},        {"fl.round_ms_tail", "ms"},
      {"fl.unattributed_ms", "ms"},        {"fl.sweep_cell_s_p50", "s"},
      {"fl.sweep_cell_s_max", "s"},        {"attacks.craft_ms", "ms"},
      {"comm.uplink_ms", "ms"},            {"comm.encode_gbps", "GB/s"},
      {"comm.decode_gbps", "GB/s"},        {"comm.validate_gbps", "GB/s"},
      {"comm.wire_norms_ms", "ms"},        {"comm.wire_signstats_ms", "ms"},
      {"comm.wire_mb_per_round", "MB"},    {"comm.rows_decoded_per_round", "count"},
      {"comm.decode_rejects", "count"},    {"comm.retries_per_uplink", "count"},
      {"core.filter_ms", "ms"},            {"core.signguard_ms", "ms"},
      {"core.filter_admits", "count"},     {"core.filter_rejects", "count"},
      {"core.mal_pass", "fraction"},       {"aggregators.aggregate_self_ms", "ms"},
      {"aggregators.sharded_ms", "ms"},    {"aggregators.merge_ms", "ms"},
      {"common.pool_util", "fraction"},    {"obs.trace_overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kNames) m[name] = {0.0, unit};
  for (const std::string& gar : table1_gars())
    m["aggregators.rule_ms." + gar] = {0.0, "ms"};
  return m;
}

double pool_util(double cpu_s, double wall_s) {
  return wall_s > 0.0 ? cpu_s / (wall_s * double(common::thread_count()))
                      : 0.0;
}

// ---- trainer workloads ------------------------------------------------------

void same_outputs(Report& rep, const TrainerJobResult& a,
                  const TrainerJobResult& b, const char* what) {
  rep.check(a.checksums == b.checksums,
            std::string("aggregate checksums differ: ") + what);
  rep.check(a.acc_best == b.acc_best,
            std::string("acc_best differs: ") + what);
  rep.check(a.mal_pass == b.mal_pass,
            std::string("mal_pass differs: ") + what);
}

void check_job(Report& rep, const Workload& w, const TrainerJobResult& j) {
  rep.attempted += j.attempted;
  rep.failed += j.failed;
  rep.check(j.attempted == w.trainer.config.rounds, "rounds missing");
  rep.check(j.acc_best >= w.trainer.acc_floor, "accuracy below its floor");
  rep.check(j.finite, "non-finite aggregate");
}

Report measure_trainer(const Workload& w, double seconds) {
  Report rep;
  std::vector<TrainerJobResult> jobs;
  closed_loop(seconds, [&] {
    jobs.push_back(run_trainer_job(w, {}));
    std::fprintf(stderr, "%s: job %zu done in %.2f s\n", w.name.c_str(),
                 jobs.size(), jobs.back().setup_s + jobs.back().run_s);
  });
  std::vector<double> setups, rounds_ms, ttt, rates;
  for (const TrainerJobResult& j : jobs) {
    check_job(rep, w, j);
    same_outputs(rep, jobs.front(), j, "repeated jobs");
    setups.push_back(j.setup_s);
    rounds_ms.insert(rounds_ms.end(), j.round_ms.begin(), j.round_ms.end());
    if (j.time_to_target_s >= 0.0) ttt.push_back(j.time_to_target_s);
    rates.push_back(double(j.round_ms.size()) / j.run_s);
  }
  while (setups.size() < kSetupSamples)
    setups.push_back(run_trainer_job(w, {.setup_only = true}).setup_s);

  const TrainerJobResult& j0 = jobs.front();
  std::fprintf(stderr, "%s: evals", w.name.c_str());
  for (const auto& [round, acc] : j0.evals)
    std::fprintf(stderr, " %zu:%.1f", round, acc);
  std::fprintf(stderr, "\n");
  Metrics& m = rep.metrics;
  m["setup_s"] = {median(setups), "s"};
  // Median over jobs, so one job slowed by the host does not move it.
  m["rounds_per_s"] = {median(rates), "rounds/s"};
  m["round_ms_p50"] = {median(rounds_ms), "ms"};
  if (!ttt.empty()) m["time_to_target_s"] = {median(ttt), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["acc_best"] = {j0.acc_best, "%"};
  m["failed_frac"] = {double(rep.failed) / double(rep.attempted), "fraction"};
  if (j0.mal_pass >= 0.0) m["mal_pass"] = {j0.mal_pass, "fraction"};
  if (j0.uplink_bytes > 0)
    m["uplink_mb_per_round"] = {
        double(j0.uplink_bytes) / double(j0.attempted) * 1e-6, "MB"};
  rep.info["round_samples"] = {double(rounds_ms.size()), "count"};
  rep.info["round_ms_tail"] = {tail_value(rounds_ms), "ms"};
  rep.info["jobs"] = {double(jobs.size()), "count"};
  rep.info["setup_samples"] = {double(setups.size()), "count"};
  rep.info["dim"] = {double(j0.dim), "count"};
  return rep;
}

Report trace_trainer(const Workload& w, const std::string& trace_file) {
  Report rep;
  // The snapshotting job runs first and doubles as the process warm-up,
  // so the untraced and traced jobs compared for overhead are both warm.
  const TrainerJobResult t2 =
      run_trainer_job(w, {.traced = true, .capture = true});
  const TrainerJobResult u = run_trainer_job(w, {});
  obs::trace_reset();
  obs::set_trace_enabled(true);
  const TrainerJobResult t1 = run_trainer_job(w, {.traced = true});
  obs::set_trace_enabled(false);
  for (const TrainerJobResult* j : {&u, &t1, &t2}) check_job(rep, w, *j);
  same_outputs(rep, u, t1, "untraced vs traced");
  same_outputs(rep, u, t2, "untraced vs second traced");
  rep.check(same_counters(t1.costs, t2.costs),
            "obs counters differ between two traced runs");
  rep.check(t2.snapshot.taken, "probe round was not captured");

  Metrics& m = rep.metrics;
  m = per_layer_defaults();
  std::vector<const obs::RoundCost*> rounds;
  for (const obs::RoundCost& c : t1.costs) rounds.push_back(&c);
  rep.check(rounds.size() == t1.round_ms.size(), "traced round count");
  stage_metrics(rounds, m);
  double unattributed = 0.0, attributed = 0.0, worst = 0.0;
  for (std::size_t r = 0; r < rounds.size() && r < t1.round_ms.size(); ++r) {
    const double un = unattributed_ms(t1.round_ms[r], *rounds[r]);
    unattributed += un;
    attributed += attributed_ms(*rounds[r]);
    worst = std::min(worst, un / t1.round_ms[r]);
  }
  const double n_rounds = double(rounds.size());
  m["fl.unattributed_ms"] = {unattributed / n_rounds, "ms"};
  // Σ stage self times + unattributed = round wall, per round. Negative
  // unattributed time means a stage no longer nests the way
  // nested_in_aggregate() assumes, and the split double-counts it.
  rep.info["stage_self_sum_ms"] = {attributed / n_rounds, "ms"};
  rep.info["round_wall_ms"] = {mean(t1.round_ms), "ms"};
  rep.info["min_unattributed_share"] = {worst, "fraction"};
  m["attacks.craft_ms"] = {
      t1.craft_calls > 0 ? t1.craft_ms / double(t1.craft_calls) : 0.0, "ms"};
  const std::uint64_t attempts =
      counter_total(rounds, obs::Counter::kRetryAttempts);
  if (t1.transmitters > 0 && attempts > 0)
    m["comm.retries_per_uplink"] = {
        double(attempts) / double(t1.transmitters) - 1.0, "count"};
  m["core.mal_pass"] = {std::max(u.mal_pass, 0.0), "fraction"};
  m["fl.round_ms_tail"] = {tail_value(u.round_ms), "ms"};
  m["fl.run_prologue_s"] = {u.prologue_s, "s"};
  m["data.synth_s"] = {median({u.synth_s, t1.synth_s, t2.synth_s}), "s"};
  m["common.pool_util"] = {pool_util(u.cpu_s, u.run_s), "fraction"};
  m["obs.trace_overhead_pct"] = {100.0 * (t1.run_s / u.run_s - 1.0), "%"};

  obs::set_trace_enabled(true);
  if (t2.snapshot.taken) run_probes(w, t2.snapshot, m);
  obs::set_trace_enabled(false);
  if (!trace_file.empty()) std::ofstream(trace_file) << obs::chrome_trace_json();
  return rep;
}

// ---- the sweep workload -----------------------------------------------------

void check_sweep(Report& rep, const Workload& w, const SweepJobResult& s) {
  rep.check(s.cells.size() == w.sweep.specs.size(), "sweep cells missing");
  double signguard_sum = 0.0, signguard_cells = 0.0;
  for (const fl::ScenarioResult& c : s.cells) {
    rep.attempted += c.resolved_rounds;
    if (!c.error.empty()) {
      rep.failed += c.resolved_rounds;
      rep.check(false, "cell error: " + c.spec.id() + ": " + c.error);
      continue;
    }
    rep.failed +=
        c.skipped_rounds + c.fallback_cmean_rounds + c.fallback_prev_rounds;
    if (c.spec.gar == "SignGuard") {
      rep.check(c.best_accuracy >= w.sweep.signguard_cell_floor,
                "SignGuard cell below its accuracy floor: " + c.spec.id());
      signguard_sum += c.best_accuracy;
      signguard_cells += 1.0;
    }
  }
  rep.check(signguard_cells > 0.0 && signguard_sum / signguard_cells >=
                                         w.sweep.signguard_mean_floor,
            "SignGuard cells' mean accuracy below its floor");
}

void same_sweep(Report& rep, const SweepJobResult& a, const SweepJobResult& b,
                const char* what) {
  bool same = a.cells.size() == b.cells.size();
  for (std::size_t i = 0; same && i < a.cells.size(); ++i)
    same = a.cells[i].trace_checksum == b.cells[i].trace_checksum &&
           a.cells[i].best_accuracy == b.cells[i].best_accuracy;
  rep.check(same, std::string("sweep trace checksums differ: ") + what);
}

std::vector<double> cell_round_ms(const SweepJobResult& s) {
  std::vector<double> v;
  for (const fl::ScenarioResult& c : s.cells)
    v.push_back(c.wall_seconds * 1e3 / double(c.resolved_rounds));
  return v;
}

Report measure_sweep(const Workload& w, double seconds) {
  Report rep;
  std::vector<SweepJobResult> sweeps;
  closed_loop(seconds, [&] {
    sweeps.push_back(run_sweep_job(w, false));
    std::fprintf(stderr, "%s: sweep %zu done in %.2f s\n", w.name.c_str(),
                 sweeps.size(), sweeps.back().wall_s);
  });
  std::vector<double> setups, rounds_ms, walls, rates;
  for (const SweepJobResult& s : sweeps) {
    check_sweep(rep, w, s);
    same_sweep(rep, sweeps.front(), s, "repeated sweeps");
    setups.push_back(s.prologue_s);
    walls.push_back(s.wall_s);
    double rounds = 0.0;
    for (const fl::ScenarioResult& c : s.cells) rounds += c.resolved_rounds;
    rates.push_back(rounds / s.wall_s);
    const auto ms = cell_round_ms(s);
    rounds_ms.insert(rounds_ms.end(), ms.begin(), ms.end());
  }
  while (setups.size() < kSetupSamples)
    setups.push_back(run_sweep_job(w, false, true).prologue_s);

  const SweepJobResult& s0 = sweeps.front();
  double acc = 0.0, mal = 0.0, selecting = 0.0;
  std::fprintf(stderr, "%s: SignGuard best accuracy", w.name.c_str());
  for (const fl::ScenarioResult& c : s0.cells) {
    acc += c.best_accuracy;
    if (c.spec.gar == "SignGuard")
      std::fprintf(stderr, " %s:%.1f", c.spec.attack.c_str(), c.best_accuracy);
    if (c.malicious_pass_rate >= 0.0) {
      mal += c.malicious_pass_rate;
      selecting += 1.0;
    }
  }
  std::fprintf(stderr, "\n");
  Metrics& m = rep.metrics;
  m["setup_s"] = {median(setups), "s"};
  m["rounds_per_s"] = {median(rates), "rounds/s"};
  m["round_ms_p50"] = {median(rounds_ms), "ms"};
  // The sweep's target is a complete Table I.
  m["time_to_target_s"] = {median(walls), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["acc_best"] = {acc / double(s0.cells.size()), "%"};
  m["failed_frac"] = {double(rep.failed) / double(rep.attempted), "fraction"};
  if (selecting > 0.0) m["mal_pass"] = {mal / selecting, "fraction"};
  rep.info["round_samples"] = {double(rounds_ms.size()), "count"};
  rep.info["round_ms_tail"] = {tail_value(rounds_ms), "ms"};
  rep.info["jobs"] = {double(sweeps.size()), "count"};
  rep.info["setup_samples"] = {double(setups.size()), "count"};
  return rep;
}

Report trace_sweep(const Workload& w, const std::string& trace_file) {
  Report rep;
  const SweepJobResult t2 = run_sweep_job(w, true);  // also the warm-up
  const SweepJobResult u = run_sweep_job(w, false);
  obs::trace_reset();
  obs::set_trace_enabled(true);
  const SweepJobResult t1 = run_sweep_job(w, true);
  obs::set_trace_enabled(false);
  for (const SweepJobResult* s : {&u, &t1, &t2}) check_sweep(rep, w, *s);
  same_sweep(rep, u, t1, "untraced vs traced");
  same_sweep(rep, u, t2, "untraced vs second traced");
  bool same = t1.cells.size() == t2.cells.size();
  for (std::size_t i = 0; same && i < t1.cells.size(); ++i)
    same = same_counters(t1.cells[i].obs_rounds, t2.cells[i].obs_rounds);
  rep.check(same, "obs counters differ between two traced sweeps");

  Metrics& m = rep.metrics;
  m = per_layer_defaults();
  std::vector<const obs::RoundCost*> rounds;
  double unattributed = 0.0, other = 0.0;
  for (const fl::ScenarioResult& c : t1.cells) {
    double cell_ms = 0.0;
    for (const obs::RoundCost& r : c.obs_rounds) {
      rounds.push_back(&r);
      cell_ms += attributed_ms(r);
      other += r.stage_ms[std::size_t(obs::Stage::kOther)];
    }
    // A cell's wall includes its trainer prologue, so this also carries
    // the per-round share of set-up.
    unattributed += (c.wall_seconds * 1e3 - cell_ms) / double(c.resolved_rounds);
  }
  stage_metrics(rounds, m);
  m["fl.unattributed_ms"] = {unattributed / double(t1.cells.size()), "ms"};
  m["attacks.craft_ms"] = {other / double(rounds.size()), "ms"};
  for (const std::string& gar : table1_gars()) {
    double sum = 0.0, k = 0.0;
    for (const fl::ScenarioResult& c : t1.cells)
      if (c.spec.gar == gar)
        for (const obs::RoundCost& r : c.obs_rounds) {
          sum += r.stage_ms[std::size_t(obs::Stage::kAggregate)];
          k += 1.0;
        }
    m["aggregators.rule_ms." + gar] = {k > 0.0 ? sum / k : 0.0, "ms"};
  }
  std::vector<double> cell_s;
  double mal = 0.0, selecting = 0.0;
  for (const fl::ScenarioResult& c : u.cells) {
    cell_s.push_back(c.wall_seconds);
    if (c.malicious_pass_rate >= 0.0) {
      mal += c.malicious_pass_rate;
      selecting += 1.0;
    }
  }
  m["fl.sweep_cell_s_p50"] = {median(cell_s), "s"};
  m["fl.sweep_cell_s_max"] = {*std::max_element(cell_s.begin(), cell_s.end()),
                              "s"};
  m["fl.round_ms_tail"] = {tail_value(cell_round_ms(u)), "ms"};
  m["core.mal_pass"] = {selecting > 0.0 ? mal / selecting : 0.0, "fraction"};
  m["data.synth_s"] = {median({u.prologue_s, t1.prologue_s, t2.prologue_s}),
                       "s"};
  m["common.pool_util"] = {pool_util(u.cpu_s, u.wall_s), "fraction"};
  m["obs.trace_overhead_pct"] = {100.0 * (t1.wall_s / u.wall_s - 1.0), "%"};

  obs::set_trace_enabled(true);
  run_sweep_probes(m);
  obs::set_trace_enabled(false);
  if (!trace_file.empty()) std::ofstream(trace_file) << obs::chrome_trace_json();
  return rep;
}

std::string arg(int argc, char** argv, const std::string& key,
                const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  std::string v = fallback;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      v = argv[i] + prefix.size();
  return v;
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

std::string Report::json() const {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_json(metrics) +
         ", \"info\": " + metrics_json(info) + "}";
}

Report measure(const Workload& w, double seconds) {
  return w.is_sweep ? measure_sweep(w, seconds) : measure_trainer(w, seconds);
}

Report trace(const Workload& w, const std::string& trace_file) {
  return w.is_sweep ? trace_sweep(w, trace_file) : trace_trainer(w, trace_file);
}

}  // namespace signguard::e2e

int main(int argc, char** argv) {
  using namespace signguard;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--selftest") == 0) return e2e::run_selftest();
  try {
    const std::string name = e2e::arg(argc, argv, "workload", "");
    const std::uint64_t seed =
        std::stoull(e2e::arg(argc, argv, "seed", "7"));
    const double seconds = std::stod(e2e::arg(argc, argv, "seconds", "20"));
    const bool traced = e2e::arg(argc, argv, "trace", "0") == "1";
    const std::string workdir = e2e::arg(argc, argv, "workdir", ".");
    const e2e::Workload w =
        e2e::make_workload(name, seed, e2e::Size::kFull, workdir);
    std::fprintf(stderr, "e2e_bench: workload=%s seed=%llu threads=%zu %s\n",
                 name.c_str(), static_cast<unsigned long long>(seed),
                 common::thread_count(), traced ? "traced" : "untraced");
    const e2e::Report rep =
        traced ? e2e::trace(w, e2e::arg(argc, argv, "trace-file", ""))
               : e2e::measure(w, seconds);
    for (const std::string& p : rep.problems)
      std::fprintf(stderr, "e2e_bench: CHECK FAILED: %s\n", p.c_str());
    std::printf("%s\n", rep.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: error: %s\n", e.what());
    return 1;
  }
}
