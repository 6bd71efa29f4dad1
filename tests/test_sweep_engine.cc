// Sweep-engine tests: grid expansion, canonical ordering, bit-identical
// JSONL across thread counts and submission orders, failure-injection
// accounting, and graceful per-scenario error capture for degenerate
// configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fl/sweep.h"
#include "fixtures.h"

namespace signguard::fl {
namespace {

// A tiny but non-trivial grid: 2 attacks x 2 GARs x 2 partitions = 8
// scenarios, 8 clients, 4 rounds each — fast enough to run repeatedly.
SweepGrid tiny_grid() {
  SweepGrid grid;
  grid.workloads = {WorkloadKind::kMnistLike};
  grid.attacks = {"NoAttack", "SignFlip"};
  grid.gars = {"Mean", "SignGuard"};
  grid.skews = {kIidSkew, 0.5};
  grid.rounds = 4;
  grid.n_clients = 8;
  return grid;
}

SweepOptions quiet_options() {
  SweepOptions opts;
  opts.scale = Scale::kSmoke;
  return opts;
}

std::string sweep_jsonl(std::vector<ScenarioSpec> specs) {
  std::ostringstream os;
  SweepOptions opts = quiet_options();
  opts.jsonl = &os;
  run_sweep(std::move(specs), opts);
  return os.str();
}

TEST(SweepGrid, ExpandIsCartesianProduct) {
  SweepGrid grid = tiny_grid();
  grid.byzantine_fracs = {0.1, 0.2, 0.3};
  EXPECT_EQ(grid.size(), 2u * 2u * 2u * 3u);
  EXPECT_EQ(grid.expand().size(), grid.size());
}

TEST(ScenarioSpec, IdIsInjectiveOverGridAndSeedsStreams) {
  const auto specs = tiny_grid().expand();
  std::vector<std::string> ids;
  for (const auto& s : specs) ids.push_back(s.id());
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  // Distinct scenarios get distinct RNG stream roots.
  EXPECT_NE(specs[0].rng_seed(), specs[1].rng_seed());
  // ... which are stable functions of the spec.
  EXPECT_EQ(specs[0].rng_seed(), tiny_grid().expand()[0].rng_seed());
  // ... and are exactly the documented Rng::stream derivation.
  Rng documented = Rng::stream(specs[0].seed, common::fnv1a64(specs[0].id()));
  Rng actual(specs[0].rng_seed());
  EXPECT_EQ(documented.engine()(), actual.engine()());
}

TEST(RunSweep, ResultsInCanonicalOrderRegardlessOfSubmission) {
  auto specs = tiny_grid().expand();
  std::vector<ScenarioSpec> reversed(specs.rbegin(), specs.rend());
  const auto a = run_sweep(specs, quiet_options());
  const auto b = run_sweep(reversed, quiet_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.id(), b[i].spec.id());
    EXPECT_EQ(a[i].trace_checksum, b[i].trace_checksum);
    EXPECT_DOUBLE_EQ(a[i].best_accuracy, b[i].best_accuracy);
  }
}

TEST(RunSweep, JsonlBitIdenticalAcrossThreadCounts) {
  const auto specs = tiny_grid().expand();
  common::set_thread_count(1);
  const std::string one = sweep_jsonl(specs);
  common::set_thread_count(4);
  const std::string four = sweep_jsonl(specs);
  common::set_thread_count(0);  // restore automatic sizing
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 8);
}

TEST(RunSweep, JsonlBitIdenticalForShuffledSubmission) {
  auto specs = tiny_grid().expand();
  const std::string canonical = sweep_jsonl(specs);
  Rng rng(41);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::size_t> order(specs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<ScenarioSpec> shuffled;
    for (const std::size_t i : order) shuffled.push_back(specs[i]);
    EXPECT_EQ(canonical, sweep_jsonl(std::move(shuffled)));
  }
}

TEST(RunSweep, SingleScenarioUsesThePoolDirectly) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  const auto results = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].error.empty());
  EXPECT_EQ(results[0].round_checksums.size(), 4u);
  EXPECT_GT(results[0].best_accuracy, 0.0);
}

TEST(RunSweep, CapturesPerRoundChecksums) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"SignFlip"};
  grid.gars = {"SignGuard"};
  grid.skews = {kIidSkew};
  SweepOptions opts = quiet_options();
  const auto results = run_sweep(grid.expand(), opts);
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  ASSERT_EQ(r.round_checksums.size(), 4u);
  for (const std::uint64_t c : r.round_checksums) EXPECT_NE(c, 0u);
  EXPECT_EQ(r.skipped_rounds, 0u);
  EXPECT_EQ(r.selection.rounds, 4u);  // SignGuard reports its trusted set
  EXPECT_GE(r.honest_pass_rate, 0.0);
  EXPECT_GE(r.malicious_pass_rate, 0.0);

  // Capture is opt-out and touches nothing else.
  opts.capture_rounds = false;
  const auto bare = run_sweep(grid.expand(), opts);
  EXPECT_TRUE(bare[0].round_checksums.empty());
  EXPECT_EQ(bare[0].trace_checksum, r.trace_checksum);
}

TEST(RunSweep, FailureInjectionIsAccountedAndDeterministic) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  grid.dropout_probs = {0.25};
  grid.straggler_probs = {0.25};
  grid.rounds = 12;
  const auto a = run_sweep(grid.expand(), quiet_options());
  const auto b = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(a.size(), 1u);
  EXPECT_GT(a[0].dropped, 0u);
  EXPECT_GT(a[0].stragglers, 0u);
  EXPECT_EQ(a[0].dropped, b[0].dropped);
  EXPECT_EQ(a[0].stragglers, b[0].stragglers);
  EXPECT_EQ(a[0].trace_checksum, b[0].trace_checksum);
  // At most one loss per client-round (the exactly-one-state partition
  // itself is pinned per round in test_chaos.cc).
  EXPECT_LE(a[0].dropped + a[0].stragglers, 12u * 8u);
}

TEST(RunSweep, DegenerateScenarioReportsErrorWithoutAbortingSweep) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  grid.byzantine_fracs = {0.2, 0.6};  // 0.6: Byzantine majority -> error
  const auto results = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(results.size(), 2u);
  std::size_t failed = 0;
  for (const auto& r : results) {
    if (!r.error.empty()) {
      ++failed;
      EXPECT_NE(r.error.find("byzantine_frac"), std::string::npos);
      EXPECT_DOUBLE_EQ(r.spec.byzantine_frac, 0.6);
    }
  }
  EXPECT_EQ(failed, 1u);
}

// A cohort larger than the training set leaves some client an empty
// shard: that scenario reports a typed error, and the sweep still runs
// its neighbour.
TEST(RunSweep, OversizedCohortErrorsWhileItsNeighbourRuns) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  grid.rounds = 1;
  const ScenarioSpec fits = grid.expand().at(0);
  ScenarioSpec oversized = fits;
  oversized.n_clients =
      make_workload(fits.workload, fits.profile, Scale::kSmoke)
          .data.train.size() +
      1;
  const auto results = run_sweep({fits, oversized}, quiet_options());
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    if (r.spec.n_clients == oversized.n_clients) {
      EXPECT_NE(r.error.find("empty shard"), std::string::npos) << r.error;
      EXPECT_EQ(r.skipped_rounds, 0u);
    } else {
      EXPECT_TRUE(r.error.empty()) << r.error;
      EXPECT_GT(r.best_accuracy, 0.0);
    }
  }
}

TEST(RunSweep, FullDropoutSkipsEveryRoundGracefully) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  grid.dropout_probs = {1.0};
  const auto results = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].error.empty());
  EXPECT_EQ(results[0].skipped_rounds, 4u);
  EXPECT_DOUBLE_EQ(results[0].best_accuracy, 0.0);
}

TEST(RunSweep, StreamsProgressForEveryScenario) {
  std::size_t calls = 0, last_done = 0;
  SweepOptions opts = quiet_options();
  opts.progress = [&](std::size_t done, std::size_t total,
                      const ScenarioResult&) {
    ++calls;
    EXPECT_GT(done, 0u);
    EXPECT_LE(done, total);
    last_done = done;
  };
  run_sweep(tiny_grid().expand(), opts);
  EXPECT_EQ(calls, 8u);
  EXPECT_EQ(last_done, 8u);
}

TEST(WriteJsonl, TimingFieldsAreOptIn) {
  SweepGrid grid = tiny_grid();
  grid.attacks = {"NoAttack"};
  grid.gars = {"Mean"};
  grid.skews = {kIidSkew};
  const auto results = run_sweep(grid.expand(), quiet_options());
  ASSERT_EQ(results.size(), 1u);
  std::ostringstream plain, timed;
  write_jsonl_line(plain, results[0], /*include_timing=*/false);
  write_jsonl_line(timed, results[0], /*include_timing=*/true);
  EXPECT_EQ(plain.str().find("wall_s"), std::string::npos);
  EXPECT_NE(timed.str().find("wall_s"), std::string::npos);
}

TEST(SummaryTable, ContainsEveryGarAndAttack) {
  const auto results = run_sweep(tiny_grid().expand(), quiet_options());
  const std::string table = summary_table(results);
  for (const char* needle :
       {"MNIST-like", "Mean", "SignGuard", "NoAttack", "SignFlip", "iid",
        "noniid s=0.5"})
    EXPECT_NE(table.find(needle), std::string::npos) << needle;
}

// ---- Byte pins of the pure formatting functions -----------------------------
// Literal ids, JSONL lines, summary headers and expansion order, built
// from hand-made specs and results (no training). They cover the gated
// branches the golden traces do not reach.

const std::string kIdHead =
    "MNIST-like/grid/a=NoAttack/g=Mean/part=iid/byz=0.2/p=1/drop=0/strag=0";
const std::string kIdTail = "/r=0/n=0/seed=7";

// Every axis on, every sub-segment written.
ScenarioSpec everything_spec() {
  ScenarioSpec s;
  s.workload = WorkloadKind::kAgNewsLike;
  s.profile = ModelProfile::kPaper;
  s.attack = "LIE";
  s.gar = "SignGuard";
  s.skew = 0.5;
  s.byzantine_frac = 0.1;
  s.participation = 0.6;
  s.dropout_prob = 0.05;
  s.straggler_prob = 0.1;
  s.codec = "topk";
  s.codec_chunk = 1024;
  s.codec_k = 0.1;
  s.shards = 8;
  s.shard_merge = "momed";
  s.fault = "flaky";
  s.deadline_ms = 250.0;
  s.churn = 0.2;
  s.churn_absence = 3.0;
  s.quorum_min = 4;
  s.quorum_survivors = 2;
  s.quorum_action = "prev";
  s.adaptive = true;
  s.wirecraft = true;
  s.collude = 0.3;
  s.rounds = 6;
  s.n_clients = 24;
  s.seed = 11;
  return s;
}

template <class Edit>
std::string id_with(Edit edit) {
  ScenarioSpec s;
  edit(s);
  return s.id();
}

TEST(SweepPins, IdSegments) {
  EXPECT_EQ(ScenarioSpec{}.id(), kIdHead + kIdTail);
  EXPECT_EQ(everything_spec().id(),
            "AGNews-like/paper/a=LIE/g=SignGuard/part=s0.5/byz=0.1/p=0.6/"
            "drop=0.05/strag=0.1/codec=topk/ck=1024/k=0.1/shards=8/"
            "smerge=momed/fault=flaky/dl=250/churn=0.2/abs=3/qmin=4/qsurv=2/"
            "qact=prev/adapt=1/wc=1/collude=0.3/r=6/n=24/seed=11");
  // Only topk carries /k=, whatever codec_k says.
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.codec = "int8";
              s.codec_k = 0.3;
            }),
            kIdHead + "/codec=int8/ck=4096" + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.codec = "topk";
              s.codec_chunk = 512;
              s.codec_k = 0.25;
            }),
            kIdHead + "/codec=topk/ck=512/k=0.25" + kIdTail);
  // shards <= 1 is the flat path: no segment, even with a merge rule set.
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.shard_merge = "momed"; }),
            kIdHead + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.shards = 4; }),
            kIdHead + "/shards=4" + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.shards = 2;
              s.shard_merge = "momed";
            }),
            kIdHead + "/shards=2/smerge=momed" + kIdTail);
  // Chaos: a deadline alone turns the axis on under the "none" profile.
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.deadline_ms = 250.0; }),
            kIdHead + "/fault=none/dl=250" + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.churn = 0.1;
              s.churn_absence = 4.0;
            }),
            kIdHead + "/fault=none/churn=0.1/abs=4" + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.fault = "lan"; }),
            kIdHead + "/fault=lan" + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.churn_absence = 5.0; }),
            kIdHead + kIdTail);
  // Quorum: survivors alone turn the policy on, and qmin is always written.
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.quorum_survivors = 3; }),
            kIdHead + "/qmin=0/qsurv=3" + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.quorum_min = 4;
              s.quorum_action = "skip";
            }),
            kIdHead + "/qmin=4/qact=skip" + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.quorum_action = "skip"; }),
            kIdHead + kIdTail);
  // Adversary segments, each on its own.
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.collude = 0.4; }),
            kIdHead + "/collude=0.4" + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.adaptive = true; }),
            kIdHead + "/adapt=1" + kIdTail);
  EXPECT_EQ(id_with([](ScenarioSpec& s) { s.wirecraft = true; }),
            kIdHead + "/wc=1" + kIdTail);
  // Non-IID partition at s=0; numbers print with %.6g.
  EXPECT_EQ(id_with([](ScenarioSpec& s) {
              s.skew = 0.0;
              s.byzantine_frac = 1.0 / 3.0;
            }),
            "MNIST-like/grid/a=NoAttack/g=Mean/part=s0/byz=0.333333/p=1/"
            "drop=0/strag=0" +
                kIdTail);
}

// A result with every result field set to a distinct value.
ScenarioResult everything_result() {
  ScenarioResult r;
  r.spec = everything_spec();
  r.resolved_rounds = 6;
  r.resolved_clients = 24;
  r.final_accuracy = 0.5;
  r.best_accuracy = 0.75;
  r.honest_pass_rate = 0.9;
  r.malicious_pass_rate = 0.25;
  r.trace_checksum = 0x1234abcdULL;
  r.skipped_rounds = 1;
  r.dropped = 2;
  r.stragglers = 3;
  r.uplink_bytes = 100;
  r.uplink_dense_bytes = 400;  // compression_ratio 4
  r.decode_rejects = 4;
  r.uplink_decoded_bytes = 200;
  r.churned = 5;
  r.deadline_misses = 6;
  r.lost_uplinks = 7;
  r.uplink_attempts = 30;
  r.sim_time_ms = 1234.5;
  r.fallback_cmean_rounds = 8;
  r.fallback_prev_rounds = 9;
  r.halted = true;
  r.round_checksums = {1, 0xffULL};
  r.obs_counters = true;
  r.obs_rounds.resize(1);
  r.obs_rounds[0].round = 1;
  r.obs_rounds[0].counters[0][0] = 3;
  r.wall_seconds = 1.5;
  r.cpu_seconds = 0.25;
  return r;
}

std::string jsonl_of(const ScenarioResult& r, bool timing = false) {
  std::ostringstream os;
  write_jsonl_line(os, r, timing);
  return os.str();
}

TEST(SweepPins, JsonlLines) {
  EXPECT_EQ(
      jsonl_of(everything_result(), /*timing=*/true),
      "{\"id\":\"" + everything_spec().id() +
          "\",\"workload\":\"AGNews-like\",\"profile\":\"paper\","
          "\"attack\":\"LIE\",\"gar\":\"SignGuard\",\"partition\":\"noniid\","
          "\"skew\":0.5,\"byzantine_frac\":0.1,\"participation\":0.6,"
          "\"dropout\":0.05,\"straggler\":0.1,\"rounds\":6,\"n_clients\":24,"
          "\"seed\":11,\"error\":null,\"final_accuracy\":0.5,"
          "\"best_accuracy\":0.75,\"honest_pass_rate\":0.9,"
          "\"malicious_pass_rate\":0.25,\"skipped_rounds\":1,\"dropped\":2,"
          "\"stragglers\":3,\"codec\":\"topk\",\"codec_chunk\":1024,"
          "\"codec_k\":0.1,\"uplink_bytes\":100,\"uplink_dense_bytes\":400,"
          "\"compression_ratio\":4,\"decode_rejects\":4,"
          "\"uplink_decoded_bytes\":200,\"shards\":8,\"shard_merge\":\"momed\","
          "\"fault\":\"flaky\",\"deadline_ms\":250,\"churn\":0.2,"
          "\"churn_absence\":3,\"churned\":5,\"deadline_misses\":6,"
          "\"lost_uplinks\":7,\"uplink_attempts\":30,\"sim_time_ms\":1234.5,"
          "\"quorum_min\":4,\"quorum_survivors\":2,\"quorum_action\":\"prev\","
          "\"fallback_cmean_rounds\":8,\"fallback_prev_rounds\":9,"
          "\"adaptive\":true,\"wirecraft\":true,\"collude\":0.3,"
          "\"halted\":true,\"trace_checksum\":\"0x000000001234abcd\","
          "\"round_checksums\":[\"0x0000000000000001\",\"0x00000000000000ff\"],"
          "\"obs\":[{\"r\":1,\"c\":{\"client_compute.rows_encoded\":3}}],"
          "\"wall_s\":1.5,\"cpu_s\":0.25}\n");

  // Core fields; an escaped error string; unset pass rates are null; the
  // gated sub-fields appear under their own conditions.
  ScenarioResult r;
  r.spec.codec = "sign1";
  r.spec.codec_k = 0.3;  // not topk: no codec_k
  r.spec.churn = 0.1;    // chaos on without a deadline
  r.spec.collude = 0.4;  // adversary on via collude alone
  r.resolved_rounds = 5;
  r.resolved_clients = 10;
  r.error = "bad \"cfg\"\n";
  EXPECT_EQ(
      jsonl_of(r),
      "{\"id\":\"" + r.spec.id() +
          "\",\"workload\":\"MNIST-like\",\"profile\":\"grid\","
          "\"attack\":\"NoAttack\",\"gar\":\"Mean\",\"partition\":\"iid\","
          "\"byzantine_frac\":0.2,\"participation\":1,\"dropout\":0,"
          "\"straggler\":0,\"rounds\":5,\"n_clients\":10,\"seed\":7,"
          "\"error\":\"bad \\\"cfg\\\"\\u000a\",\"final_accuracy\":0,"
          "\"best_accuracy\":0,\"honest_pass_rate\":null,"
          "\"malicious_pass_rate\":null,\"skipped_rounds\":0,\"dropped\":0,"
          "\"stragglers\":0,\"codec\":\"sign1\",\"codec_chunk\":4096,"
          "\"uplink_bytes\":0,\"uplink_dense_bytes\":0,"
          "\"compression_ratio\":0,\"decode_rejects\":0,"
          "\"uplink_decoded_bytes\":0,\"fault\":\"none\",\"churn\":0.1,"
          "\"churn_absence\":2,\"churned\":0,\"deadline_misses\":0,"
          "\"lost_uplinks\":0,\"uplink_attempts\":0,\"sim_time_ms\":0,"
          "\"adaptive\":false,\"wirecraft\":false,\"collude\":0.4,"
          "\"trace_checksum\":\"0x0000000000000000\"}\n");

  // Quorum on via survivors alone; deadline-only chaos.
  ScenarioResult q;
  q.spec.quorum_survivors = 3;
  q.spec.deadline_ms = 100.0;
  const std::string line = jsonl_of(q);
  EXPECT_NE(line.find(",\"stragglers\":0,\"fault\":\"none\","
                      "\"deadline_ms\":100,\"churned\":0,"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(",\"sim_time_ms\":0,\"quorum_min\":0,"
                      "\"quorum_survivors\":3,\"quorum_action\":\"cmean\","
                      "\"fallback_cmean_rounds\":0,\"fallback_prev_rounds\":0,"
                      "\"trace_checksum\""),
            std::string::npos)
      << line;
}

std::string summary_header(const ScenarioSpec& s) {
  ScenarioResult r;
  r.spec = s;
  r.resolved_rounds = 5;
  r.resolved_clients = 10;
  const std::string t = summary_table({r});
  return t.substr(0, t.find('\n'));
}

TEST(SweepPins, SummaryGroupHeaders) {
  EXPECT_EQ(summary_header(ScenarioSpec{}),
            "[MNIST-like (grid, iid, byz=0.2, rounds=5, n=10, seed=7)]");
  EXPECT_EQ(summary_header(everything_spec()),
            "[AGNews-like (paper, noniid s=0.5, byz=0.1, p=0.6, drop=0.05, "
            "strag=0.1, codec=topk, shards=8, fault=flaky, dl=250, churn=0.2, "
            "qmin=4, adaptive, wirecraft, collude=0.3, rounds=5, n=10, "
            "seed=11)]");
  // Chaos labels are per sub-field: a deadline alone prints no fault.
  ScenarioSpec dl;
  dl.deadline_ms = 250.0;
  EXPECT_EQ(summary_header(dl),
            "[MNIST-like (grid, iid, byz=0.2, dl=250, rounds=5, n=10, "
            "seed=7)]");
  // Quorum prints only qmin, even when survivors turned it on.
  ScenarioSpec qs;
  qs.quorum_survivors = 3;
  qs.quorum_action = "skip";
  EXPECT_EQ(summary_header(qs),
            "[MNIST-like (grid, iid, byz=0.2, qmin=0, rounds=5, n=10, "
            "seed=7)]");
  ScenarioSpec flat;
  flat.shard_merge = "momed";
  flat.collude = 0.4;
  EXPECT_EQ(summary_header(flat),
            "[MNIST-like (grid, iid, byz=0.2, collude=0.4, rounds=5, n=10, "
            "seed=7)]");

  // One whole table: GAR rows × attack columns in first-appearance
  // order; an errored cell prints ERR, a missing one "-".
  std::vector<ScenarioResult> results(3);
  results[0].best_accuracy = 12.5;
  results[1].spec.gar = "SignGuard";
  results[1].spec.attack = "LIE";
  results[1].best_accuracy = 80.0;
  results[2].spec.gar = "SignGuard";
  results[2].error = "boom";
  EXPECT_EQ(summary_table(results),
            "[MNIST-like (grid, iid, byz=0.2, rounds=0, n=0, seed=7)]\n"
            "GAR        NoAttack  LIE    \n"
            "----------------------------\n"
            "Mean       12.50     -      \n"
            "SignGuard  ERR       80.00  \n"
            "\n");
}

TEST(SweepPins, ExpandOrderIsTheLoopNest) {
  SweepGrid grid;
  grid.attacks = {"A", "B"};
  grid.codecs = {"none", "sign1"};
  grid.colludes = {0.0, 0.4};
  grid.codec_chunk = 64;
  grid.rounds = 3;
  std::string ids;
  for (const auto& s : grid.expand()) ids += s.id() + "\n";
  const std::string a = "MNIST-like/grid/a=A/g=Mean/part=iid/byz=0.2/p=1/"
                        "drop=0/strag=0";
  const std::string b = "MNIST-like/grid/a=B/g=Mean/part=iid/byz=0.2/p=1/"
                        "drop=0/strag=0";
  const std::string tail = "/r=3/n=0/seed=7\n";
  EXPECT_EQ(ids, a + tail + a + "/collude=0.4" + tail +         //
                     a + "/codec=sign1/ck=64" + tail +          //
                     a + "/codec=sign1/ck=64/collude=0.4" + tail +  //
                     b + tail + b + "/collude=0.4" + tail +         //
                     b + "/codec=sign1/ck=64" + tail +              //
                     b + "/codec=sign1/ck=64/collude=0.4" + tail);

  // Every list field at two values: spec k carries, on list field j (in
  // nesting order), value bit (15 - j) of k — the last field varies
  // fastest. Grid-wide scalars land in every spec.
  SweepGrid g;
  g.workloads = {WorkloadKind::kMnistLike, WorkloadKind::kCifarLike};
  g.attacks = {"A0", "A1"};
  g.gars = {"G0", "G1"};
  g.skews = {kIidSkew, 0.5};
  g.byzantine_fracs = {0.1, 0.2};
  g.participations = {0.5, 1.0};
  g.dropout_probs = {0.0, 0.1};
  g.straggler_probs = {0.0, 0.2};
  g.codecs = {"none", "sign1"};
  g.shard_counts = {1, 4};
  g.faults = {"none", "lan"};
  g.deadlines = {0.0, 100.0};
  g.churns = {0.0, 0.3};
  g.adaptives = {false, true};
  g.wirecrafts = {false, true};
  g.colludes = {0.0, 0.5};
  g.profile = ModelProfile::kPaper;
  g.codec_chunk = 128;
  g.codec_k = 0.2;
  g.shard_merge = "momed";
  g.churn_absence = 5.0;
  g.quorum_min = 2;
  g.quorum_survivors = 1;
  g.quorum_action = "skip";
  g.rounds = 9;
  g.n_clients = 12;
  g.seed = 99;
  const auto specs = g.expand();
  ASSERT_EQ(g.size(), std::size_t{1} << 16);
  ASSERT_EQ(specs.size(), g.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const ScenarioSpec& s = specs[k];
    const auto bit = [k](int j) { return (k >> (15 - j)) & 1; };
    ASSERT_EQ(s.workload, g.workloads[bit(0)]) << k;
    ASSERT_EQ(s.attack, g.attacks[bit(1)]) << k;
    ASSERT_EQ(s.gar, g.gars[bit(2)]) << k;
    ASSERT_EQ(s.skew, g.skews[bit(3)]) << k;
    ASSERT_EQ(s.byzantine_frac, g.byzantine_fracs[bit(4)]) << k;
    ASSERT_EQ(s.participation, g.participations[bit(5)]) << k;
    ASSERT_EQ(s.dropout_prob, g.dropout_probs[bit(6)]) << k;
    ASSERT_EQ(s.straggler_prob, g.straggler_probs[bit(7)]) << k;
    ASSERT_EQ(s.codec, g.codecs[bit(8)]) << k;
    ASSERT_EQ(s.shards, g.shard_counts[bit(9)]) << k;
    ASSERT_EQ(s.fault, g.faults[bit(10)]) << k;
    ASSERT_EQ(s.deadline_ms, g.deadlines[bit(11)]) << k;
    ASSERT_EQ(s.churn, g.churns[bit(12)]) << k;
    ASSERT_EQ(s.adaptive, g.adaptives[bit(13)]) << k;
    ASSERT_EQ(s.wirecraft, g.wirecrafts[bit(14)]) << k;
    ASSERT_EQ(s.collude, g.colludes[bit(15)]) << k;
    ASSERT_EQ(s.profile, ModelProfile::kPaper);
    ASSERT_EQ(s.codec_chunk, 128u);
    ASSERT_EQ(s.codec_k, 0.2);
    ASSERT_EQ(s.shard_merge, "momed");
    ASSERT_EQ(s.churn_absence, 5.0);
    ASSERT_EQ(s.quorum_min, 2u);
    ASSERT_EQ(s.quorum_survivors, 1u);
    ASSERT_EQ(s.quorum_action, "skip");
    ASSERT_EQ(s.rounds, 9u);
    ASSERT_EQ(s.n_clients, 12u);
    ASSERT_EQ(s.seed, 99u);
  }
  // An empty list empties the grid.
  g.churns.clear();
  EXPECT_EQ(g.size(), 0u);
  EXPECT_TRUE(g.expand().empty());
}

// ---- The grid's command-line flags ------------------------------------------

std::string flag_error(const std::vector<std::string>& args) {
  SweepGrid grid;
  try {
    apply_flags(grid_flags(grid), args);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(SweepFlags, DefaultsAreTheSmokeGrid) {
  SweepGrid grid;
  apply_flags(grid_flags(grid), {});
  EXPECT_EQ(grid.size(), 24u);
  EXPECT_EQ(grid.attacks, (std::vector<std::string>{"NoAttack", "SignFlip",
                                                    "LIE", "ByzMean"}));
  EXPECT_EQ(grid.gars,
            (std::vector<std::string>{"Mean", "Median", "SignGuard"}));
  EXPECT_EQ(grid.skews, (std::vector<double>{kIidSkew, 0.5}));
}

TEST(SweepFlags, ParsesListsScalarsAndShorthands) {
  SweepGrid g;
  apply_flags(grid_flags(g),
              {"--workloads=MNIST-like,CIFAR-like", "--profile=paper",
               "--gars=table1", "--skews=iid,0.25,", "--adaptive=0,true",
               "--shards=1,8", "--seed=18446744073709551615", "--attacks=A",
               "--attacks=B", "--codecs=bogus"});
  EXPECT_EQ(g.workloads.size(), 2u);
  EXPECT_EQ(g.profile, ModelProfile::kPaper);
  EXPECT_EQ(g.gars.size(), 11u);
  EXPECT_EQ(g.skews, (std::vector<double>{kIidSkew, 0.25}));
  EXPECT_EQ(g.adaptives, (std::vector<bool>{false, true}));
  EXPECT_EQ(g.shard_counts, (std::vector<std::size_t>{1, 8}));
  EXPECT_EQ(g.seed, 18446744073709551615ull);
  EXPECT_EQ(g.attacks, std::vector<std::string>{"B"});  // the last one wins
  // Unknown codec, attack, GAR, fault, merge and action names parse: they
  // surface per scenario as ScenarioResult::error.
  EXPECT_EQ(g.codecs, std::vector<std::string>{"bogus"});
}

TEST(SweepFlags, RejectsMalformedValuesWithFlagAndReason) {
  EXPECT_EQ(flag_error({"--adaptive=off"}),
            "--adaptive=off: \"off\" is not 0|1|true|false");
  EXPECT_EQ(flag_error({"--shards=-1"}),
            "--shards=-1: \"-1\" is not an unsigned count");
  EXPECT_EQ(flag_error({"--byz=abc"}), "--byz=abc: \"abc\" is not a number");
  EXPECT_EQ(flag_error({"--skews=iidx"}),
            "--skews=iidx: \"iidx\" is neither \"iid\" nor a number in "
            "[0, 1]");
  EXPECT_EQ(flag_error({"--profile=bogus"}),
            "--profile=bogus: \"bogus\" is not grid|paper");
  EXPECT_EQ(flag_error({"--codec=sign1"}), "--codec=sign1: unknown flag");
  EXPECT_EQ(flag_error({"--byz=0.2x"}), "--byz=0.2x: \"0.2x\" is not a number");
  EXPECT_EQ(flag_error({"--collude=nan"}),
            "--collude=nan: \"nan\" is not a number");
  EXPECT_EQ(flag_error({"--skews=1.5"}),
            "--skews=1.5: \"1.5\" is neither \"iid\" nor a number in [0, 1]");
  EXPECT_EQ(flag_error({"--rounds=1e3"}),
            "--rounds=1e3: \"1e3\" is not an unsigned count");
  EXPECT_EQ(flag_error({"--seed=18446744073709551616"}),
            "--seed=18446744073709551616: \"18446744073709551616\" is out of "
            "range");
  EXPECT_EQ(flag_error({"--byz=,"}), "--byz=,: empty list");
  EXPECT_EQ(flag_error({"--shard-merge="}), "--shard-merge=: empty name");
  EXPECT_EQ(flag_error({"--clients"}), "--clients: unknown flag");
  EXPECT_EQ(flag_error({"--workloads=Bogus"}),
            "--workloads=Bogus: unknown workload: Bogus (known: MNIST-like, "
            "Fashion-like, CIFAR-like, AGNews-like)");
  // The first bad token stops the parse, wherever it sits.
  EXPECT_EQ(flag_error({"--rounds=3", "--wirecraft=yes", "--clients=x"}),
            "--wirecraft=yes: \"yes\" is not 0|1|true|false");
  EXPECT_EQ(flag_error({"--rounds=3", "--clients=8"}), "accepted");
}

// ---- One determinism contract over every gated axis ------------------------
// Per cell: the JSONL is byte-identical at 1 and 4 pool threads, and a run
// killed at round 5 of 8 (checkpoints every 3) and then resumed emits the
// uninterrupted run's bytes. Each gated registry axis has a cell.

struct ContractCell {
  std::string axis;
  SweepGrid grid;
  std::vector<std::string> needles;  // must appear in the JSONL
};

SweepGrid contract_grid(const char* attack, const char* gar) {
  SweepGrid g;
  g.attacks = {attack};
  g.gars = {gar};
  g.rounds = 8;
  g.n_clients = 10;
  return g;
}

std::vector<ContractCell> contract_cells() {
  SweepGrid codec = contract_grid("ByzMean", "SignGuard");
  codec.codecs = {"sign1"};
  SweepGrid shards = contract_grid("LIE", "SignGuard");
  shards.shard_counts = {4};
  shards.n_clients = 16;
  SweepGrid chaos = contract_grid("SignFlip", "SignGuard");
  chaos.faults = {"flaky"};
  chaos.deadlines = {250.0};
  chaos.churns = {0.1};
  SweepGrid quorum = contract_grid("SignFlip", "Median");
  quorum.dropout_probs = {0.4};
  quorum.quorum_min = 7;
  quorum.quorum_action = "prev";
  // The adversary kill lands mid-bisection: the resumed run must replay
  // the adaptive search (gain, bracket, last deviation direction)
  // bitwise, or the tail diverges.
  SweepGrid adversary = contract_grid("MinMax", "Multi-Krum");
  adversary.codecs = {"sign1"};
  adversary.adaptives = {true};
  adversary.wirecrafts = {true};
  adversary.colludes = {0.0, 0.4};
  return {
      {"codec", codec, {"\"codec\":\"sign1\"", "\"uplink_bytes\":"}},
      {"shards", shards, {"\"shards\":4"}},
      {"chaos", chaos, {"\"fault\":\"flaky\"", "\"uplink_attempts\":"}},
      {"quorum", quorum, {"\"quorum_min\":7", "\"fallback_prev_rounds\":"}},
      {"adversary",
       adversary,
       {"/adapt=1/wc=1", "\"adaptive\":true", "\"wirecraft\":true",
        "\"collude\":0.4"}},
  };
}

std::string contract_jsonl(const SweepGrid& grid, const std::string& dir = "",
                           std::size_t halt = 0, bool resume = false) {
  std::ostringstream os;
  SweepOptions opts = quiet_options();
  opts.jsonl = &os;
  opts.checkpoint_dir = dir;
  opts.checkpoint_every = 3;
  opts.halt_after_round = halt;
  opts.resume = resume;
  run_sweep(grid.expand(), opts);
  return os.str();
}

class SweepContract : public ::testing::TestWithParam<ContractCell> {};

TEST_P(SweepContract, ThreadInvariantAndKillResumeByteIdentical) {
  const ContractCell& cell = GetParam();
  const auto specs = cell.grid.expand();
  ASSERT_FALSE(specs.empty());
  for (const auto& s : specs) EXPECT_TRUE(axis_active(cell.axis, s)) << s.id();

  common::set_thread_count(1);
  const std::string one = contract_jsonl(cell.grid);
  common::set_thread_count(4);
  const std::string four = contract_jsonl(cell.grid);
  common::set_thread_count(0);  // restore automatic sizing
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'),
            std::ptrdiff_t(specs.size()));
  EXPECT_EQ(one.find("\"error\":\""), std::string::npos) << one;
  EXPECT_EQ(one, four);
  for (const auto& needle : cell.needles)
    EXPECT_NE(one.find(needle), std::string::npos) << needle;

  const std::string dir = unique_temp_path("signguard_contract_" + cell.axis);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string halted = contract_jsonl(cell.grid, dir, 5);
  EXPECT_NE(halted.find("\"halted\":true"), std::string::npos);
  EXPECT_EQ(contract_jsonl(cell.grid, dir, 0, /*resume=*/true), one);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(GatedAxes, SweepContract,
                         ::testing::ValuesIn(contract_cells()),
                         [](const auto& info) { return info.param.axis; });

TEST(SweepContractCoverage, EveryGatedAxisHasACell) {
  std::vector<std::string> covered;
  for (const auto& cell : contract_cells()) covered.push_back(cell.axis);
  for (const auto& axis : gated_axes())
    EXPECT_NE(std::find(covered.begin(), covered.end(), axis), covered.end())
        << "gated axis without a contract cell: " << axis;
}

}  // namespace
}  // namespace signguard::fl
