// Observability-subsystem tests (src/obs): the two-plane contract. The
// counter plane must be bitwise invariant across SIGNGUARD_THREADS and
// submission order, survive checkpoint kill+resume, and stay strictly
// gated out of the JSONL when off (committed goldens never change). The
// timing plane must emit well-formed nesting per lane and a structurally
// valid Chrome trace_event document — its values are nondeterministic
// and nothing here pins them.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/serial.h"
#include "fl/sweep.h"
#include "obs/trace.h"
#include "fixtures.h"

namespace signguard::obs {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(std::size_t n) : prev(common::thread_count()) {
    common::set_thread_count(n);
  }
  ~ThreadGuard() { common::set_thread_count(prev); }
  std::size_t prev;
};

std::string serialized(const MetricsRegistry& reg) {
  common::ByteWriter w;
  reg.serialize(w);
  return w.bytes();
}

// ---- Counter plane: determinism -------------------------------------------

TEST(Metrics, CountersAreSubmissionOrderInvariant) {
  const auto run = [](bool reverse) {
    MetricsRegistry reg(false);
    ScopedMetrics scope(&reg);
    reg.begin_round(0);
    for (std::size_t k = 0; k < 100; ++k) {
      const std::size_t i = reverse ? 99 - k : k;
      count(Stage::kFilter, Counter::kFilterAdmits, i);
      count(Stage::kDecode, Counter::kRowsDecoded, 1);
    }
    reg.end_round();
    return serialized(reg);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Metrics, CountersAreThreadCountInvariant) {
  const auto run = [](std::size_t threads) {
    ThreadGuard g(threads);
    MetricsRegistry reg(false);
    ScopedMetrics scope(&reg);
    reg.begin_round(7);
    // Helper threads inherit the launcher's context via
    // common::task_context — every add must land in the registry no
    // matter which worker executes the chunk.
    common::parallel_for(1000, [&](std::size_t i) {
      count(Stage::kClientCompute, Counter::kGemmFlops, i + 1);
    });
    reg.end_round();
    return serialized(reg);
  };
  const std::string one = run(1);
  EXPECT_EQ(one, run(4));
  // And the total is the exact arithmetic sum, not merely stable.
  MetricsRegistry check(false);
  common::ByteReader r(one);
  check.restore(r);
  ASSERT_EQ(check.rounds().size(), 1u);
  EXPECT_EQ(check.rounds()[0].round, 7u);
  EXPECT_EQ(check.rounds()[0].counters[std::size_t(Stage::kClientCompute)]
                                      [std::size_t(Counter::kGemmFlops)],
            1000u * 1001u / 2u);
}

TEST(Metrics, StageScopeAttributesCountsToItsStage) {
  MetricsRegistry reg(false);
  ScopedMetrics scope(&reg);
  reg.begin_round(0);
  {
    StageScope eval(Stage::kEval);
    count(Counter::kGemmFlops, 5);  // stage-less: the scope's stage
  }
  count(Counter::kGemmFlops, 7);  // back to the default kOther
  reg.end_round();
  const RoundCost& rc = reg.rounds()[0];
  EXPECT_EQ(rc.counters[std::size_t(Stage::kEval)]
                       [std::size_t(Counter::kGemmFlops)],
            5u);
  EXPECT_EQ(rc.counters[std::size_t(Stage::kOther)]
                       [std::size_t(Counter::kGemmFlops)],
            7u);
}

TEST(Metrics, CountIsANoOpWithoutARegistry) {
  // No ScopedMetrics anywhere on this thread: must not crash, must not
  // leak into a later-attached registry.
  count(Stage::kFilter, Counter::kFilterAdmits, 123);
  MetricsRegistry reg(false);
  ScopedMetrics scope(&reg);
  reg.begin_round(0);
  reg.end_round();
  EXPECT_EQ(reg.totals().counters[std::size_t(Stage::kFilter)]
                                 [std::size_t(Counter::kFilterAdmits)],
            0u);
}

TEST(Metrics, SerializeMidRoundMatchesEndRound) {
  // A checkpoint lands at a round boundary: serialize() with the round
  // still open must produce the bytes the closed round would.
  MetricsRegistry a(false), b(false);
  for (MetricsRegistry* reg : {&a, &b}) {
    ScopedMetrics scope(reg);
    reg->begin_round(3);
    count(Stage::kUplink, Counter::kWireBytes, 4096);
  }
  const std::string mid = serialized(a);  // round 3 still open
  b.end_round();
  EXPECT_EQ(mid, serialized(b));
}

// ---- Sweep integration: gating and bitwise identity -----------------------

fl::SweepGrid obs_grid() {
  fl::SweepGrid grid;
  grid.attacks = {"SignFlip"};
  grid.gars = {"SignGuard"};
  grid.rounds = 6;
  grid.n_clients = 10;
  return grid;
}

std::string sweep_jsonl(const fl::SweepOptions& base) {
  std::ostringstream os;
  fl::SweepOptions opts = base;
  opts.scale = fl::Scale::kSmoke;
  opts.jsonl = &os;
  fl::run_sweep(obs_grid().expand(), opts);
  return os.str();
}

TEST(ObsJsonl, GatedOffByDefaultAndAdditiveWhenOn) {
  fl::SweepOptions off;
  const std::string line_off = sweep_jsonl(off);
  EXPECT_EQ(line_off.find("\"obs\""), std::string::npos);

  fl::SweepOptions on;
  on.obs_counters = true;
  std::string line_on = sweep_jsonl(on);
  const std::size_t begin = line_on.find(",\"obs\":[");
  ASSERT_NE(begin, std::string::npos);
  // The counter records hold no nested arrays, so the first ']' closes
  // the block. Timing was off, so no "ms" sub-objects either.
  const std::size_t end = line_on.find(']', begin);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(line_on.find("\"ms\":"), std::string::npos);
  line_on.erase(begin, end - begin + 1);
  // Counters observe the run without perturbing it: removing the obs
  // block must give back the obs-off line byte for byte.
  EXPECT_EQ(line_on, line_off);
}

TEST(ObsJsonl, CountersBitwiseIdenticalAcrossThreadCounts) {
  fl::SweepOptions on;
  on.obs_counters = true;
  std::string one, four;
  {
    ThreadGuard g(1);
    one = sweep_jsonl(on);
  }
  {
    ThreadGuard g(4);
    four = sweep_jsonl(on);
  }
  EXPECT_NE(one.find("\"obs\":["), std::string::npos);
  EXPECT_EQ(one, four);
}

TEST(ObsJsonl, KillAndResumeKeepsCounterContinuity) {
  const std::string dir = unique_temp_path("signguard_obs_ckpt");
  ::mkdir(dir.c_str(), 0755);
  const std::vector<fl::ScenarioSpec> specs = obs_grid().expand();
  ASSERT_EQ(specs.size(), 1u);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    common::fnv1a64(specs[0].id())));
  const std::string ckpt = dir + "/" + hex + ".ckpt";
  std::remove(ckpt.c_str());

  // The reference is itself checkpointed (kCheckpoint work is
  // observable: the obs block of a non-checkpointed run differs), just
  // never killed. Save cadence and rounds match the halted+resumed pair,
  // so both runs write checkpoints after the same rounds.
  fl::SweepOptions base;
  base.obs_counters = true;
  base.checkpoint_dir = dir;
  base.checkpoint_every = 2;
  const std::string ref = sweep_jsonl(base);
  EXPECT_NE(ref.find("checkpoint.checkpoint_bytes"), std::string::npos);
  std::remove(ckpt.c_str());

  fl::SweepOptions halted = base;
  halted.halt_after_round = 3;
  (void)sweep_jsonl(halted);

  fl::SweepOptions resumed = base;
  resumed.resume = true;
  const std::string full = sweep_jsonl(resumed);
  // Rounds counted before the kill ride the checkpoint: the resumed
  // line — obs block included — is the uninterrupted line.
  EXPECT_EQ(full, ref);
  std::remove(ckpt.c_str());
}

// ---- Timing plane: structure only -----------------------------------------

TEST(Trace, SpansNestWellFormedPerLane) {
  set_trace_enabled(true);
  trace_reset();
  fl::SweepOptions opts;
  (void)sweep_jsonl(opts);
  const auto lanes = trace_snapshot();
  set_trace_enabled(false);
  std::size_t total = 0;
  for (const auto& lane : lanes) {
    for (std::size_t i = 0; i < lane.size(); ++i) {
      ASSERT_NE(lane[i].name, nullptr);
      if (i > 0) EXPECT_GE(lane[i].start_ns, lane[i - 1].start_ns);
      for (std::size_t j = i + 1; j < lane.size(); ++j) {
        // RAII spans on one thread are disjoint or contained, never
        // partially overlapping.
        const auto end_i = lane[i].start_ns + lane[i].dur_ns;
        const auto end_j = lane[j].start_ns + lane[j].dur_ns;
        EXPECT_TRUE(lane[j].start_ns >= end_i || end_j <= end_i)
            << lane[i].name << " / " << lane[j].name;
      }
    }
    total += lane.size();
  }
  EXPECT_GT(total, 0u);  // the round loop emitted spans
  trace_reset();
}

TEST(Trace, ChromeTraceJsonIsStructurallyValid) {
  set_trace_enabled(true);
  trace_reset();
  {
    Span outer("test/outer", 1);
    Span inner("test/inner \"quoted\\\"");  // name escaping must hold up
  }
  const std::string doc = chrome_trace_json();
  set_trace_enabled(false);
  trace_reset();

  // String-aware brace/bracket balance scan.
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char ch : doc) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (ch == '\\')
        escaped = true;
      else if (ch == '"')
        in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("test/outer"), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(Trace, DisabledSpansRecordNothing) {
  set_trace_enabled(false);
  trace_reset();
  {
    Span s("test/should-not-appear");
  }
  for (const auto& lane : trace_snapshot()) EXPECT_TRUE(lane.empty());
}

}  // namespace
}  // namespace signguard::obs
