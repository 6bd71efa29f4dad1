#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <ostream>

namespace signguard::obs {

namespace detail {

std::atomic<int> g_trace{-1};

int resolve_trace() {
  const char* env = std::getenv("SIGNGUARD_TRACE");
  const int v = (env != nullptr && env[0] != '\0' &&
                 std::strcmp(env, "0") != 0)
                    ? 1
                    : 0;
  // Another thread may race the first resolution; both compute the same
  // value from the same environment.
  g_trace.store(v, std::memory_order_relaxed);
  return v;
}

}  // namespace detail

void set_trace_enabled(bool on) {
  detail::g_trace.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace {

// Per-lane event capacity. A smoke sweep emits a few hundred spans per
// scenario; overflow drops the newest events and counts them, so a
// runaway loop degrades the trace instead of memory.
constexpr std::size_t kLaneCapacity = 1 << 16;

struct Lane {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

struct Collector {
  std::mutex mu;
  std::vector<Lane*> lanes;  // leak-forever: lanes outlive their threads
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Collector& collector() {
  static Collector* c = new Collector;  // immortal: spans may outlive main
  return *c;
}

Lane& this_lane() {
  thread_local Lane* lane = [] {
    auto* l = new Lane;
    l->events.reserve(1024);
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    c.lanes.push_back(l);
    return l;
  }();
  return *lane;
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char ch = *s;
    if (ch == '"' || ch == '\\') {
      (out += '\\') += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
}

}  // namespace

namespace detail {

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - collector().epoch)
          .count());
}

void trace_record(const char* name, std::uint64_t start_ns,
                  std::int64_t arg) {
  Lane& lane = this_lane();
  if (lane.events.size() >= kLaneCapacity) {
    ++lane.dropped;
    return;
  }
  TraceEvent e;
  e.name = name;
  e.start_ns = start_ns;
  e.dur_ns = trace_now_ns() - start_ns;
  e.arg = arg;
  lane.events.push_back(e);
}

}  // namespace detail

void trace_reset() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  for (Lane* lane : c.lanes) {
    lane->events.clear();
    lane->dropped = 0;
  }
  c.epoch = std::chrono::steady_clock::now();
}

std::uint64_t trace_dropped() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  std::uint64_t n = 0;
  for (const Lane* lane : c.lanes) n += lane->dropped;
  return n;
}

std::vector<std::vector<TraceEvent>> trace_snapshot() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  std::vector<std::vector<TraceEvent>> out;
  out.reserve(c.lanes.size());
  for (const Lane* lane : c.lanes) {
    std::vector<TraceEvent> events = lane->events;
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                // Ties (a parent span can share its child's start tick):
                // longer span first, so nesting order is parent-first.
                return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                : a.dur_ns > b.dur_ns;
              });
    out.push_back(std::move(events));
  }
  return out;
}

std::string chrome_trace_json() {
  const auto lanes = trace_snapshot();
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                "\"args\":{\"name\":\"signguard\"}}");
  out += buf;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%zu,\"args\":{\"name\":\"lane-%zu\"}}",
                  l, l);
    out += buf;
  }
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    for (const TraceEvent& e : lanes[l]) {
      out += ",{\"name\":\"";
      json_escape_into(out, e.name);
      // ts/dur are microseconds (the trace_event unit), printed with ns
      // resolution.
      std::snprintf(buf, sizeof buf,
                    "\",\"cat\":\"signguard\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f",
                    l, double(e.start_ns) / 1000.0, double(e.dur_ns) / 1000.0);
      out += buf;
      if (e.arg >= 0) {
        std::snprintf(buf, sizeof buf, ",\"args\":{\"v\":%lld}",
                      static_cast<long long>(e.arg));
        out += buf;
      }
      out += '}';
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void write_prometheus(std::ostream& os, const MetricsRegistry* reg) {
  const auto lanes = trace_snapshot();
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_name;
  for (const auto& lane : lanes)
    for (const TraceEvent& e : lane) {
      auto& agg = by_name[e.name];
      ++agg.first;
      agg.second += e.dur_ns;
    }
  os << "# TYPE signguard_span_seconds_total counter\n";
  for (const auto& [name, agg] : by_name)
    os << "signguard_span_seconds_total{name=\"" << name << "\"} "
       << double(agg.second) * 1e-9 << "\n";
  os << "# TYPE signguard_span_count counter\n";
  for (const auto& [name, agg] : by_name)
    os << "signguard_span_count{name=\"" << name << "\"} " << agg.first
       << "\n";
  os << "signguard_trace_dropped_total " << trace_dropped() << "\n";
  if (reg != nullptr) reg->write_prometheus(os);
}

const char* stage_span_name(Stage s) {
  switch (s) {
    case Stage::kClientCompute: return "stage/client_compute";
    case Stage::kEncode: return "stage/encode";
    case Stage::kUplink: return "stage/uplink";
    case Stage::kDecode: return "stage/decode";
    case Stage::kFilter: return "stage/filter";
    case Stage::kAggregate: return "stage/aggregate";
    case Stage::kMerge: return "stage/merge";
    case Stage::kEval: return "stage/eval";
    case Stage::kCheckpoint: return "stage/checkpoint";
    case Stage::kOther: return "stage/other";
  }
  return "stage/?";
}

StageScope::StageScope(Stage s, const char* span_name, std::int64_t arg)
    : stage_(s),
      saved_(detail::t_ctx.stage),
      span_(span_name != nullptr ? span_name : stage_span_name(s), arg) {
  detail::t_ctx.stage = s;
  MetricsRegistry* reg = detail::t_ctx.reg;
  if (reg != nullptr && reg->timing_enabled()) {
    timed_reg_ = reg;
    t0_ns_ = detail::trace_now_ns();
  }
}

StageScope::~StageScope() {
  if (timed_reg_ != nullptr)
    timed_reg_->add_ms(stage_,
                       double(detail::trace_now_ns() - t0_ns_) * 1e-6);
  detail::t_ctx.stage = saved_;
}

}  // namespace signguard::obs
