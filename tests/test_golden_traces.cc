// Golden-trace regression suite: fixed smoke-scale scenario sets run
// through the sweep engine, and their deterministic JSONL output —
// per-round aggregate checksums included — is compared byte-for-byte
// against committed golden files:
//
//   canonical_sweep.jsonl  the paper's plain round: workloads, attacks,
//                          GAR families, partitions, participation and
//                          legacy failure injection.
//   feature_sweep.jsonl    every optional round path: sign1 wire and
//                          decode paths, sharding, chaos + quorum
//                          degradation, adaptive wirecrafting and the
//                          no-honest skip — with the per-round work
//                          counters ("obs" blocks) on, so stage
//                          attribution and byte billing are pinned too.
//   paper_sweep.jsonl      the paper-profile models (the CNN on
//                          MNIST-like, the residual CNN on CIFAR-like,
//                          the text RNN on AGNews-like): the only set
//                          whose clients train Conv2d, MaxPool2 and
//                          RnnTanh layers, with counters on.
//
// Each set pins rounds, client count and seed explicitly, so the traces
// are independent of SIGNGUARD_SCALE and SIGNGUARD_THREADS. Any change to
// the numeric pipeline (data generation, client training, an aggregation
// rule, the RNG stream layout, counter placement) shifts a line and fails
// this suite — which is the point. If the change is intentional,
// regenerate every file and commit:
//
//   SIGNGUARD_REGEN_GOLDEN=1 ./build/test_golden_traces
//   git add tests/golden/ && git commit
//
// The golden files live in the source tree (tests/golden/), located via
// the SIGNGUARD_SOURCE_DIR compile definition.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fl/sweep.h"

namespace signguard::fl {
namespace {

std::string golden_path(const std::string& file) {
  return std::string(SIGNGUARD_SOURCE_DIR) + "/tests/golden/" + file;
}

// Runs `specs` through the sweep engine with `opts` (timing off, rounds
// captured) and compares the JSONL byte-for-byte against
// tests/golden/<file> — or rewrites that file under
// SIGNGUARD_REGEN_GOLDEN=1.
void expect_matches_golden(const std::string& file,
                           std::vector<ScenarioSpec> specs,
                           SweepOptions opts) {
  std::ostringstream os;
  opts.scale = Scale::kSmoke;  // irrelevant: every spec pins its rounds
  opts.capture_rounds = true;
  opts.include_timing = false;
  opts.jsonl = &os;
  const auto results = run_sweep(std::move(specs), opts);
  for (const auto& r : results)
    EXPECT_TRUE(r.error.empty()) << r.spec.id() << ": " << r.error;
  const std::string actual = os.str();
  ASSERT_FALSE(actual.empty());

  const std::string path = golden_path(file);
  if (std::getenv("SIGNGUARD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path << " (" << results.size()
                 << " scenarios) — commit it";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with SIGNGUARD_REGEN_GOLDEN=1 and commit";
  std::stringstream golden;
  golden << in.rdbuf();

  if (actual != golden.str()) {
    // Byte equality failed; report the first differing line for a usable
    // diff instead of two multi-kilobyte blobs.
    std::istringstream a(actual), g(golden.str());
    std::string la, lg;
    std::size_t line = 0;
    while (true) {
      const bool ha = static_cast<bool>(std::getline(a, la));
      const bool hg = static_cast<bool>(std::getline(g, lg));
      ++line;
      if (!ha && !hg) break;
      ASSERT_EQ(hg, ha) << file << ": line count diverges at line " << line;
      ASSERT_EQ(lg, la) << file << ": golden trace mismatch at line " << line
                        << "\nIf this change is intentional, regenerate: "
                           "SIGNGUARD_REGEN_GOLDEN=1 ./test_golden_traces";
    }
    ASSERT_EQ(golden.str(), actual);  // e.g. trailing-byte difference
  }
}

// A scenario pinned to `n` clients and `rounds` rounds.
ScenarioSpec pinned(std::string attack, std::string gar, std::size_t n,
                    std::size_t rounds) {
  ScenarioSpec s;
  s.attack = std::move(attack);
  s.gar = std::move(gar);
  s.n_clients = n;
  s.rounds = rounds;
  return s;
}

// The canonical scenario set: two workloads (image + text data paths),
// three attack regimes, three GAR families, both partition modes, plus
// one partial-participation and one failure-injection scenario — 29 in
// total, each pinned to 5 rounds of 10 clients.
std::vector<ScenarioSpec> canonical_scenarios() {
  SweepGrid grid;
  grid.workloads = {WorkloadKind::kMnistLike, WorkloadKind::kAgNewsLike};
  grid.attacks = {"NoAttack", "SignFlip", "LIE"};
  grid.gars = {"Mean", "Median", "SignGuard"};
  grid.skews = {kIidSkew, 0.5};
  grid.rounds = 5;
  grid.n_clients = 10;
  grid.seed = 7;
  // 2 x 3 x 3 x 2 = 36 grid cells is more than the smoke budget needs;
  // thin the text workload to the iid partition.
  std::vector<ScenarioSpec> specs;
  for (auto& s : grid.expand()) {
    if (s.workload == WorkloadKind::kAgNewsLike && s.skew >= 0.0) continue;
    specs.push_back(std::move(s));
  }
  // Diversity cells: partial participation and failure injection.
  ScenarioSpec partial = pinned("SignFlip", "SignGuard", 10, 5);
  partial.participation = 0.6;
  specs.push_back(partial);
  ScenarioSpec flaky = pinned("NoAttack", "Median", 10, 5);
  flaky.dropout_prob = 0.2;
  flaky.straggler_prob = 0.2;
  specs.push_back(flaky);
  return specs;
}

// The feature scenario set: one small cell per optional branch of the
// round, so every stage, early exit and billing rule has a pinned trace.
std::vector<ScenarioSpec> feature_scenarios() {
  std::vector<ScenarioSpec> specs;
  // sign1 uplinks: SignGuard filters on wire statistics and decodes only
  // its trusted set; Multi-Krum decodes every accepted row.
  for (const char* gar : {"SignGuard", "Multi-Krum"}) {
    ScenarioSpec s = pinned("ByzMean", gar, 10, 4);
    s.codec = "sign1";
    specs.push_back(s);
  }
  // Hierarchical aggregation (shard accounting joins the trace).
  ScenarioSpec sharded = pinned("LIE", "SignGuard", 16, 3);
  sharded.shards = 4;
  specs.push_back(sharded);
  // Flaky transport with deadline and churn under a quorum policy tight
  // enough to degrade rounds down both fallback chains.
  for (const char* action : {"cmean", "prev"}) {
    ScenarioSpec s = pinned("SignFlip", "SignGuard", 12, 6);
    s.fault = "flaky";
    s.deadline_ms = 250.0;
    s.churn = 0.1;
    s.quorum_min = 10;
    s.quorum_action = action;
    specs.push_back(s);
  }
  // Closed-loop adversary: adaptive amplitude, crafted onto the sign1
  // codec's fixed points.
  ScenarioSpec adaptive = pinned("MinMax", "SignGuard", 12, 5);
  adaptive.codec = "sign1";
  adaptive.adaptive = true;
  adaptive.wirecraft = true;
  specs.push_back(adaptive);
  // Failure injection heavy enough that some rounds see no honest
  // gradient at all (the no-honest skip), with and without a chaos
  // transport billing the skipped rounds' retries.
  ScenarioSpec starved = pinned("NoAttack", "Median", 5, 6);
  starved.dropout_prob = 0.7;
  starved.straggler_prob = 0.5;
  specs.push_back(starved);
  ScenarioSpec starved_wire = pinned("SignFlip", "Mean", 5, 6);
  starved_wire.codec = "sign1";
  starved_wire.fault = "flaky";
  starved_wire.dropout_prob = 0.7;
  specs.push_back(starved_wire);
  return specs;
}

// The paper-profile set: the three workloads on their paper models,
// three attack regimes against three GAR families, iid — 27 scenarios,
// each pinned to 4 rounds of 10 clients.
std::vector<ScenarioSpec> paper_scenarios() {
  SweepGrid grid;
  grid.workloads = {WorkloadKind::kMnistLike, WorkloadKind::kCifarLike,
                    WorkloadKind::kAgNewsLike};
  grid.profile = ModelProfile::kPaper;
  grid.attacks = {"NoAttack", "LIE", "ByzMean"};
  grid.gars = {"Mean", "Median", "SignGuard"};
  grid.rounds = 4;
  grid.n_clients = 10;
  grid.seed = 7;
  return grid.expand();
}

TEST(GoldenTraces, CanonicalSweepMatchesCommittedTraces) {
  expect_matches_golden("canonical_sweep.jsonl", canonical_scenarios(), {});
}

TEST(GoldenTraces, FeatureSweepMatchesCommittedTraces) {
  SweepOptions opts;
  opts.obs_counters = true;
  expect_matches_golden("feature_sweep.jsonl", feature_scenarios(), opts);
}

TEST(GoldenTraces, PaperSweepMatchesCommittedTraces) {
  SweepOptions opts;
  opts.obs_counters = true;
  expect_matches_golden("paper_sweep.jsonl", paper_scenarios(), opts);
}

// The golden scenario set itself must stay deterministic across repeated
// in-process runs (guards against hidden global state leaking between
// scenarios or sweeps).
TEST(GoldenTraces, RepeatedRunsAreBitIdentical) {
  SweepOptions opts;
  opts.scale = Scale::kSmoke;
  std::ostringstream a, b;
  opts.jsonl = &a;
  run_sweep(canonical_scenarios(), opts);
  opts.jsonl = &b;
  run_sweep(canonical_scenarios(), opts);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace signguard::fl
