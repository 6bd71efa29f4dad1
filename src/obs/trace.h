#pragma once
// Timing spans — plane 2 of the observability subsystem.
//
// An RAII Span records a {name, start_ns, dur_ns, arg} complete event
// into the calling thread's ring buffer (one lane per thread; pool
// helpers get their own lanes, so a Perfetto view shows one track per
// worker). The clock is steady_clock nanoseconds from a process-wide
// epoch. Spans are nondeterministic by nature and never feed the
// deterministic counter plane (obs/metrics.h) or any golden output.
//
// Cost model: with tracing disabled (the default), a Span is one relaxed
// atomic load and a branch — the microbench obs suite pins the
// disabled-path overhead of a fully instrumented SignGuard round at
// <= 2%. Tracing is enabled by the SIGNGUARD_TRACE environment variable
// (any value but "" or "0"), overridable via set_trace_enabled().
//
// Exporters: chrome_trace_json() emits the Chrome trace_event format
// (load the file in Perfetto / chrome://tracing; spans nest by
// containment per lane), write_prometheus() the text exposition of span
// aggregates plus an optional registry's counters.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace signguard::obs {

namespace detail {
// -1 = unresolved (resolve from SIGNGUARD_TRACE on first query).
extern std::atomic<int> g_trace;
int resolve_trace();
std::uint64_t trace_now_ns();
void trace_record(const char* name, std::uint64_t start_ns, std::int64_t arg);
}  // namespace detail

inline bool trace_enabled() {
  const int v = detail::g_trace.load(std::memory_order_relaxed);
  return v >= 0 ? v == 1 : detail::resolve_trace() == 1;
}
void set_trace_enabled(bool on);

// One completed span. `arg` < 0 means no argument; otherwise it is
// exported as args.v (round number, shard index, ...).
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::int64_t arg = -1;
};

class Span {
 public:
  explicit Span(const char* name, std::int64_t arg = -1)
      : name_(trace_enabled() ? name : nullptr), arg_(arg) {
    if (name_ != nullptr) start_ns_ = detail::trace_now_ns();
  }
  ~Span() {
    if (name_ != nullptr) detail::trace_record(name_, start_ns_, arg_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t arg_;
  std::uint64_t start_ns_ = 0;
};

// Collector controls. reset only with no spans in flight (between runs).
void trace_reset();
std::uint64_t trace_dropped();  // events lost to full lane rings
// Per-lane snapshot, each lane sorted by start_ns (for tests/exporters).
std::vector<std::vector<TraceEvent>> trace_snapshot();

// Chrome trace_event JSON document (Perfetto-loadable).
std::string chrome_trace_json();
// Prometheus text exposition: span totals/counts per name, plus the
// registry's counter totals when one is given.
void write_prometheus(std::ostream& os,
                      const MetricsRegistry* reg = nullptr);

// Combined stage guard for the trainer's coordinator thread: sets the
// thread context's current stage (so count() attributes to it), measures
// the scope into MetricsRegistry::stage_ms when timing is on, and emits
// a span (named after the stage unless overridden) when tracing is on.
class StageScope {
 public:
  explicit StageScope(Stage s, const char* span_name = nullptr,
                      std::int64_t arg = -1);
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Stage stage_;
  Stage saved_;
  MetricsRegistry* timed_reg_ = nullptr;
  std::uint64_t t0_ns_ = 0;
  Span span_;
};

// Span name for a stage ("stage/aggregate", ...): static storage, usable
// as a Span name directly.
const char* stage_span_name(Stage s);

}  // namespace signguard::obs
