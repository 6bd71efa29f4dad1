// obs suite: the cost of the obs subsystem itself (src/obs), so the
// instrumentation can stay compiled into every hot path. Three prices,
// on one pool thread:
//
//   primitives  per-call cost of obs::count() and Span construction on
//               the disabled path (no registry attached, tracing off:
//               one TLS load / one relaxed atomic load plus a branch)
//               and on the enabled paths (sharded atomic fetch_add;
//               ring-buffer span record),
//   round       wall time of the paper's flagship aggregation round
//               (SignGuard, n=256 clients, d=1M) with obs off, with
//               counters attached, and with counters + tracing,
//   bound       the analytic disabled-path overhead of that round: the
//               number of count()/Span sites it executes (from
//               MetricsRegistry::ops() and a traced event count) times
//               the measured disabled per-call cost, as a percentage of
//               the round — an upper bound that, unlike the raw round
//               deltas, is not washed out by run-to-run noise.
//
// Gated: the bound, which pins the "observability is free when off"
// contract.
//
// Entries: no params, usec 0; the value is in the entry's unit.

#include <cstdlib>

#include "common/rng.h"
#include "core/signguard.h"
#include "microbench.h"
#include "obs/trace.h"

namespace signguard::microbench {
namespace {

constexpr std::size_t kClients = 256, kDim = 1'000'000;

// Per-call cost of `op` in nanoseconds, amortized over a batch large
// enough that the stopwatch quantization vanishes.
template <class F>
double per_call_ns(Run& run, F&& op) {
  constexpr int kBatch = 4096;
  const double usec = run.timer.time_usec([&] {
    for (int i = 0; i < kBatch; ++i) op();
  });
  return usec * 1e3 / kBatch;
}

}  // namespace

void obs_suite(Run& run) {
  // --- primitives ------------------------------------------------------
  volatile std::uint64_t sink = 0;
  const double count_off_ns = per_call_ns(run, [&] {
    obs::count(obs::Counter::kGemmFlops, 1);
    sink = sink + 1;  // the loop body must not be empty after inlining
  });
  run.record("primitives", "count_disabled", count_off_ns, "ns/call");
  const double span_off_ns = per_call_ns(run, [&] {
    obs::Span span("bench/probe");
    sink = sink + 1;
  });
  run.record("primitives", "span_disabled", span_off_ns, "ns/call");

  {
    obs::MetricsRegistry reg(false);
    obs::ScopedMetrics scope(&reg);
    reg.begin_round(0);
    const double count_on_ns = per_call_ns(run, [&] {
      obs::count(obs::Counter::kGemmFlops, 1);
    });
    reg.end_round();
    run.record("primitives", "count_enabled", count_on_ns, "ns/call");
  }
  {
    obs::set_trace_enabled(true);
    const double span_on_ns = per_call_ns(run, [&] {
      obs::Span span("bench/probe");
    });
    obs::set_trace_enabled(false);
    obs::trace_reset();
    run.record("primitives", "span_enabled", span_on_ns, "ns/call");
    run.record("primitives", "spans_per_sec_enabled", 1e9 / span_on_ns, "/s");
  }

  // --- the SignGuard round, three ways ---------------------------------
  const auto m = make_matrix(kClients, kDim);
  core::SignGuard sg(core::plain_config(7));
  Rng rng(7);
  agg::GarContext ctx;
  ctx.assumed_byzantine = kClients / 5;
  ctx.rng = &rng;
  const auto round = [&] {
    auto out = sg.aggregate(m, ctx);
    if (out.empty()) std::abort();
  };

  const double round_off_usec = run.timer.time_usec(round);
  run.record("round", "signguard_obs_off", round_off_usec, "us");

  // How many obs call sites the round executes: count() invocations from
  // the registry's op counter, spans from a traced run.
  std::uint64_t ops_per_round = 0;
  std::uint64_t spans_per_round = 0;
  double round_counters_usec = 0.0;
  {
    obs::MetricsRegistry reg(false);
    obs::ScopedMetrics scope(&reg);
    reg.begin_round(0);
    round();
    ops_per_round = reg.ops();
    reg.end_round();
    reg.begin_round(1);
    round_counters_usec = run.timer.time_usec(round);
    reg.end_round();
  }
  run.record("round", "signguard_counters_on", round_counters_usec, "us");
  {
    obs::set_trace_enabled(true);
    obs::trace_reset();
    round();
    for (const auto& lane : obs::trace_snapshot())
      spans_per_round += lane.size();
    const double round_traced_usec = run.timer.time_usec(round);
    obs::set_trace_enabled(false);
    obs::trace_reset();
    run.record("round", "signguard_trace_on", round_traced_usec, "us");
  }
  run.record("round", "count_sites_per_round", double(ops_per_round),
             "calls");
  run.record("round", "span_sites_per_round", double(spans_per_round),
             "calls");

  // --- the disabled-path bound -----------------------------------------
  run.record("bound", "disabled_overhead",
             100.0 *
                 (double(ops_per_round) * count_off_ns +
                  double(spans_per_round) * span_off_ns) /
                 (round_off_usec * 1e3),
             "%");
  // The measured delta: honest but noisy, reported, never gated.
  run.record("bound", "counters_on_delta",
             100.0 * (round_counters_usec - round_off_usec) / round_off_usec,
             "%");
}

}  // namespace signguard::microbench
