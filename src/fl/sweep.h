#pragma once
// Parallel scenario-sweep engine: the paper's evaluation is a grid
// (workload × attack × GAR × partition skew × Byzantine fraction ×
// participation — Tables I-III, Figs. 4-6), and this subsystem runs any
// such grid concurrently on the common::parallel pool.
//
// Determinism contract: scenarios are sorted into a canonical order (by
// ScenarioSpec::id()) and each scenario draws every random decision from
// its own stream, derived statelessly from (id, seed) via Rng::stream
// semantics. A scenario occupies exactly one pool worker — the trainer's
// nested parallel_chunks calls run inline (common::in_parallel_region) —
// so every ScenarioResult, and the streamed JSONL, is bit-identical for
// any SIGNGUARD_THREADS value and any submission or completion order.
//
// Every grid axis is one entry of the axis registry in sweep.cc: its
// fields, command-line flags, gate, id segment, JSONL fields and summary
// label. ScenarioSpec::id(), SweepGrid::{size,expand}, write_jsonl_line,
// summary_table and grid_flags all iterate that one table.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "fl/experiment.h"
#include "fl/metrics.h"
#include "obs/metrics.h"

namespace signguard::fl {

// Partition-skew value meaning IID; any value in [0, 1] means the §VI-B
// sort-and-partition scheme with that IID fraction s.
inline constexpr double kIidSkew = -1.0;

// One cell of the evaluation grid. Fields left at their "default"
// sentinel (rounds == 0, n_clients == 0) resolve to the workload's
// scale-dependent config at run time.
struct ScenarioSpec {
  WorkloadKind workload = WorkloadKind::kMnistLike;
  ModelProfile profile = ModelProfile::kGrid;
  std::string attack = "NoAttack";   // make_attack name
  std::string gar = "Mean";          // make_aggregator name
  double skew = kIidSkew;            // kIidSkew = IID, else non-IID s
  double byzantine_frac = 0.2;
  double participation = 1.0;
  double dropout_prob = 0.0;         // failure injection, per client/round
  double straggler_prob = 0.0;
  // Uplink transport axis (src/comm): codec name ("none", "sign1",
  // "int8", "topk"), coordinates per wire chunk, and the top-k keep
  // fraction. "none" disables the transport layer entirely; such
  // scenarios keep their pre-transport ids and JSONL bytes, so the
  // committed golden traces stay valid (the layer is a provable no-op
  // when off).
  std::string codec = "none";
  std::size_t codec_chunk = 4096;
  double codec_k = 0.05;
  // Hierarchical aggregation axis (src/aggregators/sharded.h): number of
  // shard-local aggregators the round is partitioned across, and the
  // root merge rule ("wmean" | "momed"). shards <= 1 runs the flat path
  // with no wrapper at all, so such scenarios keep their pre-sharding
  // ids, RNG streams and golden traces byte-for-byte.
  std::size_t shards = 1;
  std::string shard_merge = "wmean";
  // Chaos axis (fl/chaos.h): fault profile name ("none", "lan", "wan",
  // "flaky", "mobile"), per-round uplink deadline (0 = unbounded) and
  // session churn (leave probability per up-round; absence lengths are
  // geometric with the given mean). All three default to off, and the
  // whole axis is gated out of ids / JSONL exactly like codec/shards, so
  // existing scenarios keep their bytes.
  std::string fault = "none";
  double deadline_ms = 0.0;
  double churn = 0.0;
  double churn_absence = 2.0;
  // Quorum degradation axis (fl/chaos.h): minimum gradients reaching the
  // aggregator / minimum post-filter survivors before the round degrades
  // per `quorum_action` ("cmean" | "prev" | "skip"). Both zero = policy
  // off (pre-quorum behavior, bytes included).
  std::size_t quorum_min = 0;
  std::size_t quorum_survivors = 0;
  std::string quorum_action = "cmean";
  // Adaptive-adversary axis (src/attacks/adaptive.h, wirecraft.h): wrap
  // the scenario's attack in feedback-driven amplitude adaptation
  // (`adaptive`), codec-aware wire crafting (`wirecraft` — crafts
  // against this spec's codec), and/or chaos-colluding scheduling with
  // time-varying colluding fraction (`collude` = base fraction, 0 = off).
  // All default off and are gated out of ids / JSONL exactly like
  // codec/shards/fault, so committed goldens keep their bytes.
  bool adaptive = false;
  bool wirecraft = false;
  double collude = 0.0;
  std::size_t rounds = 0;            // 0 = workload default for the scale
  std::size_t n_clients = 0;         // 0 = workload default
  std::uint64_t seed = 7;

  // Canonical key: total order over scenarios and the root of the
  // scenario's RNG stream. Two specs with equal ids are the same
  // experiment.
  std::string id() const;

  // Stateless per-scenario stream root: depends only on (id(), seed), so
  // a scenario's randomness is unaffected by what else is in the sweep.
  std::uint64_t rng_seed() const;
};

// Declarative cartesian grid; expand() emits one ScenarioSpec per
// combination. Explicit scenario lists can skip the grid and go straight
// to run_sweep.
struct SweepGrid {
  std::vector<WorkloadKind> workloads = {WorkloadKind::kMnistLike};
  ModelProfile profile = ModelProfile::kGrid;
  std::vector<std::string> attacks = {"NoAttack"};
  std::vector<std::string> gars = {"Mean"};
  std::vector<double> skews = {kIidSkew};
  std::vector<double> byzantine_fracs = {0.2};
  std::vector<double> participations = {1.0};
  std::vector<double> dropout_probs = {0.0};
  std::vector<double> straggler_probs = {0.0};
  // Compression axis: one scenario per codec name. Chunk size and top-k
  // fraction are grid-wide scalars (sweeping them too would square the
  // grid; pin them per run instead).
  std::vector<std::string> codecs = {"none"};
  std::size_t codec_chunk = 4096;
  double codec_k = 0.05;
  // Sharding axis: one scenario per shard count. The merge rule is a
  // grid-wide scalar, same rationale as codec_chunk.
  std::vector<std::size_t> shard_counts = {1};
  std::string shard_merge = "wmean";
  // Chaos axes: one scenario per (fault profile, deadline, churn) triple.
  // The absence mean and the whole quorum policy are grid-wide scalars,
  // same rationale as codec_chunk.
  std::vector<std::string> faults = {"none"};
  std::vector<double> deadlines = {0.0};
  std::vector<double> churns = {0.0};
  double churn_absence = 2.0;
  std::size_t quorum_min = 0;
  std::size_t quorum_survivors = 0;
  std::string quorum_action = "cmean";
  // Adaptive-adversary axes: one scenario per flag value / collude
  // fraction ({false} / {0.0} keep the grid adversary-free).
  std::vector<bool> adaptives = {false};
  std::vector<bool> wirecrafts = {false};
  std::vector<double> colludes = {0.0};
  std::size_t rounds = 0;
  std::size_t n_clients = 0;
  std::uint64_t seed = 7;

  std::size_t size() const;  // product of the dimension sizes
  // One spec per combination, the last list varying fastest (list order:
  // the declaration order above).
  std::vector<ScenarioSpec> expand() const;
};

// ---- Axis registry introspection ------------------------------------------

// Names of the registry's gated axes ("codec", "shards", "chaos",
// "quorum", "adversary"), in registry order. A gated axis writes no id
// segment, JSONL field or summary label for a spec it is off for.
std::vector<std::string> gated_axes();

// Whether registry axis `axis` is on for `s` (always true for a core
// axis). Throws std::invalid_argument for an unknown name.
bool axis_active(const std::string& axis, const ScenarioSpec& s);

// ---- Command-line surface (sweep_runner) ------------------------------------

// One command-line flag: "--name=VALUE", or a bare "--name" when `value`
// is empty. `set` parses the whole value into its target and throws
// std::invalid_argument with the reason when it is malformed.
struct CliFlag {
  std::string name;
  std::string value;     // placeholder shown in --help; empty: bare flag
  std::string fallback;  // default, applied before argv when non-empty
  std::string help;
  std::function<void(const std::string&)> set;
};

// The grid's flags in registry order, one per SweepGrid field (lists
// comma-separated), writing into `grid` — which must outlive them. Their
// fallbacks form sweep_runner's 24-scenario smoke grid. Unknown attack,
// GAR, codec, fault, merge and action names are accepted here and
// surface per scenario in the results.
std::vector<CliFlag> grid_flags(SweepGrid& grid);

// Applies every flag's fallback, then each token of `args` in order.
// Throws std::invalid_argument("<token>: <reason>") for a malformed value
// or a token that names no flag.
void apply_flags(const std::vector<CliFlag>& flags,
                 const std::vector<std::string>& args);

// --help text for `flags`: one line per flag with its default.
std::string flags_help(const std::vector<CliFlag>& flags);

// Strict unsigned count: digits only, in range, or std::invalid_argument.
std::size_t parse_count(const std::string& v);

// One scenario's outcome: the trainer's run totals (the TrainingResult
// base, all zero when the scenario threw) plus what the scenario adds.
struct ScenarioResult : TrainingResult {
  ScenarioSpec spec;
  std::size_t resolved_rounds = 0;    // after scale/default resolution
  std::size_t resolved_clients = 0;
  std::string error;                  // non-empty: the scenario threw

  // GAR filter pass-rates (SignGuard's S' admission, Krum's selection,
  // ...); negative when the rule reports no selection.
  double honest_pass_rate = -1.0;
  double malicious_pass_rate = -1.0;

  // Folds every round's aggregate checksum and participation accounting
  // into one value — the golden-trace regression signal — and keeps each
  // round's aggregate checksum (FNV-1a over the aggregate's bits, 0 on a
  // skipped round) when SweepOptions::capture_rounds is on.
  std::uint64_t trace_checksum = 0;
  std::vector<std::uint64_t> round_checksums;

  // Observability (src/obs): per-round work-counter / stage-timing
  // records, captured only when the matching SweepOptions flag is on.
  // The flags gate the JSONL "obs" block exactly like codec/shards/
  // fault fields gate theirs, so existing goldens keep their bytes; the
  // counter plane is deterministic (thread- and order-invariant), the
  // stage_ms plane is wall-clock and never folded or golden-compared.
  bool obs_counters = false;
  bool obs_timing = false;
  std::vector<obs::RoundCost> obs_rounds;

  // Non-deterministic timing; excluded from JSONL unless include_timing.
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

struct SweepOptions {
  Scale scale = scale_from_env();
  bool capture_rounds = true;   // keep per-round checksums in the results
  bool include_timing = false;  // add wall/cpu fields to the JSONL
  // Stream results as JSONL, one line per scenario, flushed in canonical
  // order as soon as every earlier scenario has finished.
  std::ostream* jsonl = nullptr;
  // Completion callback (any order, serialized under the engine's lock):
  // scenarios finished so far, total, and the result that just landed.
  std::function<void(std::size_t done, std::size_t total,
                     const ScenarioResult&)>
      progress;
  // Crash-consistent sweep checkpointing (fl/checkpoint.h). Non-empty
  // checkpoint_dir gives every scenario its own file in that directory
  // (named by the FNV-1a64 of its id), carrying the full trainer state
  // (run totals included) plus the engine's observer fold, round
  // checksums and counter registry — a resumed scenario emits
  // byte-identical JSONL. halt_after_round is the simulated kill for
  // crash-recovery tests: scenarios stop cleanly after that many rounds
  // with ScenarioResult::halted set; rerunning with `resume` continues
  // them from their latest checkpoint.
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  std::size_t halt_after_round = 0;
  // Observability (src/obs): obs_counters gives every scenario its own
  // MetricsRegistry (deterministic per-round work counters, emitted as
  // the JSONL "obs" block and carried through sweep checkpoints);
  // obs_timing additionally records per-stage wall-clock into the same
  // records (nondeterministic — never golden-compare a timed line).
  bool obs_counters = false;
  bool obs_timing = false;
};

// Runs every scenario concurrently on the common::parallel pool and
// returns the results in canonical (ScenarioSpec::id) order. A scenario
// that throws — degenerate config, misbehaving attack — is reported via
// ScenarioResult::error instead of aborting the sweep.
std::vector<ScenarioResult> run_sweep(std::vector<ScenarioSpec> specs,
                                      const SweepOptions& opts = {});

// One JSONL line for one result (schema: docs/ARCHITECTURE.md). All
// fields except the optional timing pair are deterministic.
void write_jsonl_line(std::ostream& os, const ScenarioResult& r,
                      bool include_timing = false);

// Table-I-style summary: one text table per scenario group (everything
// but attack and GAR), GAR rows × attack columns, best-accuracy cells.
std::string summary_table(const std::vector<ScenarioResult>& results);

}  // namespace signguard::fl
