#include "fl/sweep.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "aggregators/sharded.h"
#include "attacks/adaptive.h"
#include "attacks/wirecraft.h"
#include "comm/codec.h"
#include "common/format.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/table.h"
#include "fl/trainer.h"

namespace signguard::fl {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// JSON number formatting: %.12g round-trips every value this engine
// emits (accuracies, rates, probabilities) and is locale-independent.
std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string json_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"0x%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      (out += '\\') += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // Control characters (error strings come from arbitrary
      // exception::what()) must be escaped for the line to stay JSON.
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out += '"';
}

double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
#endif
  return 0.0;
}

// One of the three places a scenario is written out: its id, its JSONL
// line or its summary-group labels. Each call names the value's key at
// every site (nullptr: not written there; "": the bare value), so one
// call per value serves all three. Ids are "/key=value" segments (the
// leading '/' is dropped), JSONL fields ",\"key\":value", labels
// "key=value".
struct Out {
  enum Site { kId, kJson, kLabel } site;
  std::string text;  // the id or JSONL line under construction
  std::vector<std::string> labels;

  explicit Out(Site s, std::string start = "")
      : site(s), text(std::move(start)) {}

  Out& put(const char* ik, const char* jk, const char* lk,
           const std::string& v, const std::string& json) {
    if (site == kId && ik) (text += '/') += *ik ? ik + ("=" + v) : v;
    if (site == kJson && jk) (((text += ",\"") += jk) += "\":") += json;
    if (site == kLabel && lk) labels.push_back(*lk ? lk + ("=" + v) : v);
    return *this;
  }
  Out& str(const char* ik, const char* jk, const char* lk,
           const std::string& v) {
    return put(ik, jk, lk, v, json_str(v));
  }
  Out& real(const char* ik, const char* jk, const char* lk, double v) {
    return put(ik, jk, lk, num(v), json_num(v));
  }
  Out& count(const char* ik, const char* jk, const char* lk,
             std::uint64_t v) {
    return put(ik, jk, lk, std::to_string(v), std::to_string(v));
  }
  // A JSONL-only field: the run's outcome and result accounting.
  Out& field(const char* jk, const std::string& json) {
    return put(nullptr, jk, nullptr, "", json);
  }
  // An on/off switch: "/ik=1" and the bare label `lk` only when on, the
  // JSONL boolean always.
  Out& flag(const char* ik, const char* jk, const char* lk, bool v) {
    return put(v ? ik : nullptr, jk, nullptr, "1", v ? "true" : "false")
        .put(nullptr, nullptr, v ? "" : nullptr, lk, "");
  }
};

// ---- Value parsers: each consumes its whole token or throws the reason ----

std::string quoted(const std::string& v) { return "\"" + v + "\""; }

// "a,b,c" -> items; empty items are dropped, so a stray trailing comma
// adds nothing.
std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  for (std::size_t begin = 0, end = 0; begin <= s.size(); begin = end + 1) {
    end = std::min(s.find(',', begin), s.size());
    if (end > begin) out.push_back(s.substr(begin, end - begin));
  }
  return out;
}

// Whole-token strtod: false unless all of `v` is one finite number.
bool to_number(const std::string& v, double& x) {
  char* end = nullptr;
  x = std::strtod(v.c_str(), &end);
  return !v.empty() && end == v.c_str() + v.size() && std::isfinite(x);
}

double parse_number(const std::string& v) {
  double x = 0.0;
  if (!to_number(v, x))
    throw std::invalid_argument(quoted(v) + " is not a number");
  return x;
}

double parse_skew(const std::string& v) {
  double s = kIidSkew;
  if (v == "iid") return s;
  if (!to_number(v, s) || s < 0.0 || s > 1.0)
    throw std::invalid_argument(quoted(v) +
                                " is neither \"iid\" nor a number in [0, 1]");
  return s;
}

bool parse_bool(const std::string& v) {
  if (v == "1" || v == "true") return true;
  if (v == "0" || v == "false") return false;
  throw std::invalid_argument(quoted(v) + " is not 0|1|true|false");
}

std::string parse_name(const std::string& v) {
  if (v.empty()) throw std::invalid_argument("empty name");
  return v;
}

WorkloadKind parse_workload(const std::string& v) {
  try {
    return workload_kind_from_name(v);
  } catch (const std::invalid_argument& e) {
    std::string known;
    for (const auto kind : all_workloads())
      (known += known.empty() ? "" : ", ") += workload_name(kind);
    throw std::invalid_argument(std::string(e.what()) + " (known: " + known +
                                ")");
  }
}

ModelProfile parse_profile(const std::string& v) {
  if (v == "grid") return ModelProfile::kGrid;
  if (v == "paper") return ModelProfile::kPaper;
  throw std::invalid_argument(quoted(v) + " is not grid|paper");
}

// ---- The axis registry ------------------------------------------------------

// One SweepGrid field: its command-line flag and its digit in expand()'s
// mixed-radix walk. A list field's digit runs over the list; a grid-wide
// scalar is a digit of size 1, copied into every spec.
struct Field {
  const char* flag;
  const char* value;     // --help placeholder
  const char* fallback;  // sweep_runner default
  std::string help;
  std::function<void(SweepGrid&, const std::string&)> set;
  std::function<std::size_t(const SweepGrid&)> size;
  std::function<void(const SweepGrid&, std::size_t, ScenarioSpec&)> assign;
};

template <class V, class S, class Parse>
Field list(std::vector<V> SweepGrid::*g, S ScenarioSpec::*s, const char* flag,
           const char* fallback, std::string help, Parse parse) {
  return {flag, "LIST", fallback, std::move(help),
          [g, parse](SweepGrid& grid, const std::string& v) {
            std::vector<V> items;
            for (const std::string& item : split_csv(v))
              items.push_back(parse(item));
            if (items.empty()) throw std::invalid_argument("empty list");
            grid.*g = std::move(items);
          },
          [g](const SweepGrid& grid) { return (grid.*g).size(); },
          [g, s](const SweepGrid& grid, std::size_t i, ScenarioSpec& spec) {
            spec.*s = (grid.*g)[i];
          }};
}

template <class V, class Parse>
Field scalar(V SweepGrid::*g, V ScenarioSpec::*s, const char* flag,
             const char* value, const char* fallback, std::string help,
             Parse parse) {
  return {flag, value, fallback, std::move(help),
          [g, parse](SweepGrid& grid, const std::string& v) {
            grid.*g = parse(v);
          },
          [](const SweepGrid&) { return std::size_t{1}; },
          [g, s](const SweepGrid& grid, std::size_t, ScenarioSpec& spec) {
            spec.*s = grid.*g;
          }};
}

// --gars: "table1" expands to every Table-I defense, in row order.
Field gar_list() {
  Field f = list(&SweepGrid::gars, &ScenarioSpec::gar, "gars",
                 "Mean,Median,SignGuard",
                 "aggregation rules (\"table1\": every Table-I defense)",
                 parse_name);
  f.set = [set = f.set](SweepGrid& grid, const std::string& v) {
    std::string gars;
    for (const std::string& gar : split_csv(v))
      (gars += ',') += gar != "table1" ? gar
                                       : "Mean,TrMean,Median,GeoMed,Multi-Krum,"
                                         "Bulyan,DnC,SignSGD,SignGuard-Sim,"
                                         "SignGuard-Dist,SignGuard";
    set(grid, gars);
  };
  return f;
}

std::string fault_names() {
  std::string names;
  for (const auto& p : fault_profile_names())
    (names += names.empty() ? "" : "|") += p;
  return names;
}

// One axis of the grid: its fields, and how a scenario is written out on
// it. `active` is null for a core axis (always written). A gated axis
// whose predicate is false for a spec writes nothing anywhere — no id
// segment, JSONL field or summary label — so scenarios that leave it off
// keep the ids, RNG streams and golden bytes they had before the axis
// existed. In the JSONL the core axes' fields come first, then the run's
// outcome, then each active gated axis's block.
struct Axis {
  const char* name;
  std::vector<Field> fields;
  bool (*active)(const ScenarioSpec&);
  void (*write)(const ScenarioSpec&, const ScenarioResult&, Out&);
};

// Registry order is id-segment order, summary-label order, --help order
// and expand()'s nesting order (the last list field varies fastest).
// Attack and GAR have no summary label: they are the table's columns and
// rows. rounds / n_clients write the spec's value (0 = scale default) to
// the id and the resolved one to the JSONL and the summary.
const std::vector<Axis>& axes() {
  static const std::vector<Axis> kAxes = {
      {"scenario",
       {list(&SweepGrid::workloads, &ScenarioSpec::workload, "workloads",
             "MNIST-like", "workloads", parse_workload),
        scalar(&SweepGrid::profile, &ScenarioSpec::profile, "profile",
               "grid|paper", "grid", "model profile", parse_profile),
        list(&SweepGrid::attacks, &ScenarioSpec::attack, "attacks",
             "NoAttack,SignFlip,LIE,ByzMean", "attack names", parse_name),
        gar_list()},
       nullptr,
       [](const auto& s, const auto&, auto& o) {
         o.str("", "workload", "", workload_name(s.workload))
             .str("", "profile", "", to_string(s.profile))
             .str("a", "attack", nullptr, s.attack)
             .str("g", "gar", nullptr, s.gar);
       }},
      {"population",
       {list(&SweepGrid::skews, &ScenarioSpec::skew, "skews", "iid,0.5",
             "\"iid\" or non-IID s in [0,1]", parse_skew),
        list(&SweepGrid::byzantine_fracs, &ScenarioSpec::byzantine_frac,
             "byz", "0.2", "Byzantine fractions", parse_number),
        list(&SweepGrid::participations, &ScenarioSpec::participation,
             "participation", "1.0", "sampled client fractions",
             parse_number),
        list(&SweepGrid::dropout_probs, &ScenarioSpec::dropout_prob,
             "dropout", "0.0", "per-round dropout probs", parse_number),
        list(&SweepGrid::straggler_probs, &ScenarioSpec::straggler_prob,
             "straggler", "0.0", "per-round straggler probs", parse_number)},
       nullptr,
       [](const auto& s, const auto&, auto& o) {
         const bool iid = s.skew < 0.0;
         o.put("part", "partition", nullptr, iid ? "iid" : "s" + num(s.skew),
               iid ? "\"iid\"" : "\"noniid\"")
             .put(nullptr, nullptr, "", iid ? "iid" : "noniid s=" + num(s.skew),
                  "");
         if (!iid) o.real(nullptr, "skew", nullptr, s.skew);
         o.real("byz", "byzantine_frac", "byz", s.byzantine_frac)
             .real("p", "participation", s.participation < 1.0 ? "p" : nullptr,
                   s.participation)
             .real("drop", "dropout", s.dropout_prob > 0.0 ? "drop" : nullptr,
                   s.dropout_prob)
             .real("strag", "straggler",
                   s.straggler_prob > 0.0 ? "strag" : nullptr,
                   s.straggler_prob);
       }},
      // compression_ratio is a float32 printed with %.9g: parsing it back
      // with strtof recovers the stored value bit-exactly.
      {"codec",
       {list(&SweepGrid::codecs, &ScenarioSpec::codec, "codecs", "none",
             "none|sign1|int8|topk", parse_name),
        scalar(&SweepGrid::codec_chunk, &ScenarioSpec::codec_chunk,
               "codec-chunk", "N", "4096", "coords per wire chunk",
               parse_count),
        scalar(&SweepGrid::codec_k, &ScenarioSpec::codec_k, "codec-k", "F",
               "0.05", "top-k keep fraction", parse_number)},
       [](const ScenarioSpec& s) { return s.codec != "none"; },
       [](const auto& s, const auto& r, auto& o) {
         o.str("codec", "codec", "codec", s.codec)
             .count("ck", "codec_chunk", nullptr, s.codec_chunk);
         if (s.codec == "topk") o.real("k", "codec_k", nullptr, s.codec_k);
         o.field("uplink_bytes", std::to_string(r.uplink_bytes))
             .field("uplink_dense_bytes", std::to_string(r.uplink_dense_bytes))
             .field("compression_ratio", common::fmt_float(r.compression_ratio))
             .field("decode_rejects", std::to_string(r.decode_rejects))
             .field("uplink_decoded_bytes",
                    std::to_string(r.uplink_decoded_bytes));
       }},
      {"shards",
       {list(&SweepGrid::shard_counts, &ScenarioSpec::shards, "shards", "1",
             "shard counts (1 = flat)", parse_count),
        scalar(&SweepGrid::shard_merge, &ScenarioSpec::shard_merge,
               "shard-merge", "NAME", "wmean", "wmean|momed", parse_name)},
       [](const ScenarioSpec& s) { return s.shards > 1; },
       [](const auto& s, const auto&, auto& o) {
         o.count("shards", "shards", "shards", s.shards)
             .str(s.shard_merge != "wmean" ? "smerge" : nullptr,
                  "shard_merge", nullptr, s.shard_merge);
       }},
      {"chaos",
       {list(&SweepGrid::faults, &ScenarioSpec::fault, "faults", "none",
             fault_names(), parse_name),
        list(&SweepGrid::deadlines, &ScenarioSpec::deadline_ms, "deadline",
             "0", "uplink deadlines, ms (0 = unbounded)", parse_number),
        list(&SweepGrid::churns, &ScenarioSpec::churn, "churn", "0",
             "churn leave probability", parse_number),
        scalar(&SweepGrid::churn_absence, &ScenarioSpec::churn_absence,
               "churn-absence", "F", "2.0", "mean churn absence, rounds",
               parse_number)},
       [](const ScenarioSpec& s) {
         return s.fault != "none" || s.deadline_ms > 0.0 || s.churn > 0.0;
       },
       [](const auto& s, const auto& r, auto& o) {
         o.str("fault", "fault", s.fault != "none" ? "fault" : nullptr,
               s.fault);
         if (s.deadline_ms > 0.0) o.real("dl", "deadline_ms", "dl", s.deadline_ms);
         if (s.churn > 0.0)
           o.real("churn", "churn", "churn", s.churn)
               .real("abs", "churn_absence", nullptr, s.churn_absence);
         o.field("churned", std::to_string(r.churned_total))
             .field("deadline_misses", std::to_string(r.deadline_miss_total))
             .field("lost_uplinks", std::to_string(r.lost_uplink_total))
             .field("uplink_attempts", std::to_string(r.uplink_attempts))
             .field("sim_time_ms", json_num(r.sim_time_ms));
       }},
      {"quorum",
       {scalar(&SweepGrid::quorum_min, &ScenarioSpec::quorum_min,
               "quorum-min", "N", "0",
               "min gradients at the aggregator (0 = policy off)",
               parse_count),
        scalar(&SweepGrid::quorum_survivors, &ScenarioSpec::quorum_survivors,
               "quorum-survivors", "N", "0", "min post-filter survivors",
               parse_count),
        scalar(&SweepGrid::quorum_action, &ScenarioSpec::quorum_action,
               "quorum-action", "NAME", "cmean", "cmean|prev|skip",
               parse_name)},
       [](const ScenarioSpec& s) {
         return s.quorum_min > 0 || s.quorum_survivors > 0;
       },
       [](const auto& s, const auto& r, auto& o) {
         o.count("qmin", "quorum_min", "qmin", s.quorum_min)
             .count(s.quorum_survivors > 0 ? "qsurv" : nullptr,
                    "quorum_survivors", nullptr, s.quorum_survivors)
             .str(s.quorum_action != "cmean" ? "qact" : nullptr,
                  "quorum_action", nullptr, s.quorum_action)
             .field("fallback_cmean_rounds",
                    std::to_string(r.fallback_cmean_rounds))
             .field("fallback_prev_rounds",
                    std::to_string(r.fallback_prev_rounds));
       }},
      {"adversary",
       {list(&SweepGrid::adaptives, &ScenarioSpec::adaptive, "adaptive", "0",
             "0|1: feedback-driven amplitude adaptation", parse_bool),
        list(&SweepGrid::wirecrafts, &ScenarioSpec::wirecraft, "wirecraft",
             "0", "0|1: codec-aware wire crafting", parse_bool),
        list(&SweepGrid::colludes, &ScenarioSpec::collude, "collude", "0",
             "chaos-colluding base fraction (0 = off)", parse_number)},
       [](const ScenarioSpec& s) {
         return s.adaptive || s.wirecraft || s.collude > 0.0;
       },
       [](const auto& s, const auto&, auto& o) {
         o.flag("adapt", "adaptive", "adaptive", s.adaptive)
             .flag("wc", "wirecraft", "wirecraft", s.wirecraft);
         if (s.collude > 0.0) o.real("collude", "collude", "collude", s.collude);
       }},
      {"run",
       {scalar(&SweepGrid::rounds, &ScenarioSpec::rounds, "rounds", "N", "0",
               "rounds (0 = scale default)", parse_count),
        scalar(&SweepGrid::n_clients, &ScenarioSpec::n_clients, "clients",
               "N", "0", "clients (0 = scale default)", parse_count),
        scalar(&SweepGrid::seed, &ScenarioSpec::seed, "seed", "N", "7",
               "sweep seed", parse_count)},
       nullptr,
       [](const auto& s, const auto& r, auto& o) {
         o.count("r", nullptr, nullptr, s.rounds)
             .count(nullptr, "rounds", "rounds", r.resolved_rounds)
             .count("n", nullptr, nullptr, s.n_clients)
             .count(nullptr, "n_clients", "n", r.resolved_clients)
             .count("seed", "seed", "seed", s.seed);
       }},
  };
  return kAxes;
}

// The gating rule, written once: every core axis, and each gated axis
// whose predicate holds for `s`, in registry order.
template <class F>
void for_active(const ScenarioSpec& s, F&& f) {
  for (const Axis& a : axes())
    if (!a.active || a.active(s)) f(a);
}

}  // namespace

std::string ScenarioSpec::id() const {
  static const ScenarioResult kNoResult;
  Out o{Out::kId};
  for_active(*this, [&](const Axis& a) { a.write(*this, kNoResult, o); });
  return o.text.substr(1);
}

std::uint64_t ScenarioSpec::rng_seed() const {
  // The engine's streams are exactly Rng::stream(seed, fnv1a64(id())):
  // root = the user-facing sweep seed, key = the scenario's identity.
  return common::stream_seed(seed, common::fnv1a64(id()));
}

std::size_t SweepGrid::size() const {
  std::size_t n = 1;
  for (const Axis& a : axes())
    for (const Field& f : a.fields) n *= f.size(*this);
  return n;
}

std::vector<ScenarioSpec> SweepGrid::expand() const {
  // Mixed-radix walk: spec k's digit on each field is (k / stride) % n,
  // where stride is the product of the sizes of every later field.
  std::vector<ScenarioSpec> specs(size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    std::size_t stride = specs.size();
    for (const Axis& a : axes())
      for (const Field& f : a.fields) {
        const std::size_t n = f.size(*this);
        stride /= n;
        f.assign(*this, k / stride % n, specs[k]);
      }
  }
  return specs;
}

std::vector<std::string> gated_axes() {
  std::vector<std::string> names;
  for (const Axis& a : axes())
    if (a.active) names.push_back(a.name);
  return names;
}

bool axis_active(const std::string& axis, const ScenarioSpec& s) {
  for (const Axis& a : axes())
    if (axis == a.name) return !a.active || a.active(s);
  throw std::invalid_argument("unknown axis: " + axis);
}

std::vector<CliFlag> grid_flags(SweepGrid& grid) {
  std::vector<CliFlag> flags;
  for (const Axis& a : axes())
    for (const Field& f : a.fields)
      flags.push_back({f.flag, f.value, f.fallback, f.help,
                       [&f, &grid](const std::string& v) { f.set(grid, v); }});
  return flags;
}

void apply_flags(const std::vector<CliFlag>& flags,
                 const std::vector<std::string>& args) {
  const auto apply = [](const CliFlag& f, const std::string& token,
                        const std::string& value) {
    try {
      f.set(value);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(token + ": " + e.what());
    }
  };
  for (const CliFlag& f : flags)
    if (!f.fallback.empty())
      apply(f, "--" + f.name + "=" + f.fallback, f.fallback);
  for (const std::string& token : args) {
    const std::size_t eq = token.find('=');
    const bool valued = eq != std::string::npos;
    const auto it = std::find_if(flags.begin(), flags.end(), [&](const auto& f) {
      return "--" + f.name == token.substr(0, eq) && valued == !f.value.empty();
    });
    if (it == flags.end()) throw std::invalid_argument(token + ": unknown flag");
    apply(*it, token, valued ? token.substr(eq + 1) : "");
  }
}

std::string flags_help(const std::vector<CliFlag>& flags) {
  constexpr std::size_t kColumn = 24;
  std::string out;
  for (const CliFlag& f : flags) {
    std::string line = "  --" + f.name + (f.value.empty() ? "" : "=" + f.value);
    line.resize(std::max(line.size() + 2, kColumn), ' ');
    for (const char c : f.help)
      (line += c) += c == '\n' ? std::string(kColumn, ' ') : "";
    if (!f.fallback.empty()) line += "  [" + f.fallback + "]";
    out += line + "\n";
  }
  return out;
}

std::size_t parse_count(const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument(quoted(v) + " is not an unsigned count");
  errno = 0;
  const unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE)
    throw std::invalid_argument(quoted(v) + " is out of range");
  return n;
}

namespace {

// Folds one round's deterministic accounting into the running trace
// checksum.
std::uint64_t fold_round(std::uint64_t state, const RoundTrace& t) {
  const std::uint64_t words[] = {t.round,
                                 t.aggregate_checksum,
                                 t.participants,
                                 t.byzantine,
                                 t.dropped,
                                 t.stragglers,
                                 t.selected,
                                 t.skipped ? 1ULL : 0ULL};
  state = common::fnv1a64(words, sizeof words, state);
  // Shard accounting joins the fold only on sharded rounds: the flat
  // path's word set is pinned by the committed goldens.
  if (t.shards > 0) {
    const std::uint64_t shard_words[] = {t.shards, t.shard_survivor_sum};
    state = common::fnv1a64(shard_words, sizeof shard_words, state);
  }
  // Chaos accounting joins only for chaos scenarios, and the outcome
  // word only under a quorum policy — same gating discipline, so
  // fault-free goldens keep their pinned word set.
  if (t.chaos) {
    std::uint64_t ms_bits;
    std::memcpy(&ms_bits, &t.sim_round_ms, sizeof ms_bits);
    const std::uint64_t chaos_words[] = {t.churned, t.deadline_misses,
                                         t.lost_uplinks, t.uplink_attempts,
                                         ms_bits};
    state = common::fnv1a64(chaos_words, sizeof chaos_words, state);
  }
  if (t.quorum) {
    const std::uint64_t outcome_word[] = {
        static_cast<std::uint64_t>(t.outcome)};
    state = common::fnv1a64(outcome_word, sizeof outcome_word, state);
  }
  return state;
}

// RoundTrace fields for the sweep checkpoint's extra blob, one list for
// save and load (common::ByteIo): a resumed scenario must re-emit the
// already-traced rounds byte-identically, so the captured traces ride
// inside the trainer checkpoint.
void trace_fields(common::ByteIo& io, RoundTrace& t) {
  io(t.round, t.aggregate_checksum, t.participants, t.byzantine, t.dropped,
     t.stragglers, t.selected, t.decode_rejects, t.shards,
     t.shard_survivor_sum, t.churned, t.deadline_misses, t.lost_uplinks,
     t.uplink_attempts, t.sim_round_ms, t.outcome, t.chaos, t.quorum,
     t.test_accuracy, t.skipped);
}

ScenarioResult run_scenario(const ScenarioSpec& spec, const Workload& w,
                            const SweepOptions& opts) {
  ScenarioResult r;
  r.spec = spec;

  TrainerConfig cfg = w.config;
  if (spec.rounds > 0) cfg.rounds = spec.rounds;
  if (spec.n_clients > 0) cfg.n_clients = spec.n_clients;
  cfg.byzantine_frac = spec.byzantine_frac;
  cfg.participation = spec.participation;
  cfg.dropout_prob = spec.dropout_prob;
  cfg.straggler_prob = spec.straggler_prob;
  cfg.noniid = spec.skew >= 0.0;
  if (cfg.noniid) cfg.noniid_s = spec.skew;
  cfg.seed = spec.rng_seed();
  r.resolved_rounds = cfg.rounds;
  r.resolved_clients = cfg.n_clients;

  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = thread_cpu_seconds();
  // Declared ahead of the try so the checkpoint extra-blob lambdas (which
  // outlive this scope inside the TrainerConfig) can capture it.
  std::uint64_t fold = common::kFnvOffsetBasis;
  // Scenario-local counter registry (src/obs), likewise captured by the
  // checkpoint lambdas: its per-round records ride in the extra blob so
  // a resumed scenario re-emits a byte-identical "obs" JSONL block.
  std::optional<obs::MetricsRegistry> reg;
  if (opts.obs_counters || opts.obs_timing) reg.emplace(opts.obs_timing);
  r.obs_counters = reg.has_value();
  r.obs_timing = opts.obs_timing;
  try {
    // Inside the try: an unknown codec name or degenerate chunk/k is a
    // per-scenario error, not a sweep abort.
    cfg.compression.codec = comm::codec_kind_from_name(spec.codec);
    cfg.compression.chunk = spec.codec_chunk;
    cfg.compression.k_fraction = spec.codec_k;
    // Chaos / quorum axes (an unknown profile or action name is likewise
    // a per-scenario error).
    cfg.chaos.profile = fault_profile_from_name(spec.fault);
    cfg.chaos.deadline_ms = spec.deadline_ms;
    cfg.chaos.churn_leave_prob = spec.churn;
    cfg.chaos.churn_mean_absence = spec.churn_absence;
    cfg.quorum.min_participants = spec.quorum_min;
    cfg.quorum.min_survivors = spec.quorum_survivors;
    cfg.quorum.action = degrade_action_from_name(spec.quorum_action);
    const bool chaos_scn = cfg.chaos.active();
    const bool quorum_scn = cfg.quorum.active();
    if (!opts.checkpoint_dir.empty()) {
      // One checkpoint file per scenario, named by its id hash: the id is
      // the canonical key, and hashing keeps the filename filesystem-safe
      // at any grid size.
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(
                        common::fnv1a64(spec.id())));
      cfg.checkpoint.path = opts.checkpoint_dir + "/" + hex + ".ckpt";
      cfg.checkpoint.every = opts.checkpoint_every;
      cfg.checkpoint.resume = opts.resume;
      cfg.checkpoint.halt_after_round = opts.halt_after_round;
      // The observer's fold state and captured traces ride in the
      // checkpoint's extra blob, so a resumed scenario replays its JSONL
      // byte-identically. &r / &fold outlive trainer.run below.
      const auto extra = [&r, &fold, &reg](common::ByteIo& io) {
        std::size_t n_traces = r.rounds.size();
        io(fold, r.skipped_rounds, r.dropped_total, r.straggler_total,
           n_traces);
        r.rounds.resize(n_traces);
        for (RoundTrace& t : r.rounds) trace_fields(io, t);
        // The registry serializes the still-open round as a snapshot
        // identical to the record end_round will push (nothing counts
        // between a round's save and its end_round), so a kill+resume
        // reconstructs bitwise-identical counter records. A checkpoint
        // carrying counter state restores it — or drains it into a
        // throwaway registry when this run has obs off (the blob must be
        // consumed either way).
        bool has_reg = reg.has_value();
        io(has_reg);
        if (io.saving()) {
          if (reg) reg->serialize(io.writer());
        } else if (has_reg) {
          obs::MetricsRegistry scratch(false);
          (reg ? *reg : scratch).restore(io.reader());
        }
      };
      cfg.checkpoint.save_extra = [extra](common::ByteWriter& w) {
        common::ByteIo io(w);
        extra(io);
      };
      cfg.checkpoint.load_extra = [extra](common::ByteReader& rd) {
        common::ByteIo io(rd);
        extra(io);
      };
    }
    if (reg) cfg.metrics = &*reg;
    Trainer trainer(w.data, w.model_factory, cfg);
    auto attack = make_attack(spec.attack);
    // Adversary-axis wrappers, innermost first: amplitude adaptation
    // steers the base attack from round feedback, wire crafting then
    // snaps the (possibly rescaled) rows onto this scenario's codec
    // fixed points — wirecraft wraps OUTSIDE adaptive so the emitted
    // amplitudes are always wire-legal no matter where the gain search
    // wanders — and the chaos-colluding scheduler (outermost) decides
    // who sends it. Feedback flows through every layer either way. The
    // collude stream root is a stateless key off the scenario seed, like
    // the GAR/shard seeds above.
    if (spec.adaptive)
      attack = std::make_unique<attacks::AdaptiveAttack>(std::move(attack));
    if (spec.wirecraft)
      attack = std::make_unique<attacks::WirecraftAttack>(std::move(attack),
                                                          cfg.compression);
    if (spec.collude > 0.0)
      attack = std::make_unique<attacks::ChaosColludeAttack>(
          std::move(attack), common::splitmix64(cfg.seed ^ 0xc0117deULL),
          spec.collude);
    auto gar =
        make_aggregator(spec.gar, common::splitmix64(cfg.seed ^ 0x6a5ULL));
    if (spec.shards > 1) {
      // The sharded wrapper replaces the flat rule; per-shard instances
      // come from the same factory, seeded off the wrapper seed. An
      // unknown merge name throws here — a per-scenario error.
      agg::ShardedConfig scfg;
      scfg.shards = spec.shards;
      scfg.merge = agg::shard_merge_from_name(spec.shard_merge);
      const std::string inner = spec.gar;
      gar = std::make_unique<agg::ShardedAggregator>(
          [inner](std::uint64_t s) { return make_aggregator(inner, s); },
          common::splitmix64(cfg.seed ^ 0x5d17ULL), scfg);
    }

    const auto observer = [&](const RoundObservation& obs) {
      RoundTrace t;
      t.round = obs.round;
      if (!obs.skipped && !obs.aggregate.empty())
        t.aggregate_checksum = common::fnv1a64(
            obs.aggregate.data(), obs.aggregate.size() * sizeof(float));
      t.participants = obs.participants;
      t.byzantine = obs.byzantine;
      t.dropped = obs.dropped;
      t.stragglers = obs.stragglers;
      t.selected = obs.selected.size();
      t.decode_rejects = obs.decode_rejects;
      t.shards = obs.shards;
      for (const std::size_t sv : obs.shard_survivors)
        t.shard_survivor_sum += sv;
      t.churned = obs.churned;
      t.deadline_misses = obs.deadline_misses;
      t.lost_uplinks = obs.lost_uplinks;
      t.uplink_attempts = obs.uplink_attempts;
      t.sim_round_ms = obs.sim_round_ms;
      t.outcome = obs.outcome;
      t.chaos = chaos_scn;
      t.quorum = quorum_scn;
      t.test_accuracy = obs.test_accuracy;
      t.skipped = obs.skipped;
      fold = fold_round(fold, t);
      if (t.skipped) ++r.skipped_rounds;
      r.dropped_total += t.dropped;
      r.straggler_total += t.stragglers;
      if (opts.capture_rounds) r.rounds.push_back(std::move(t));
    };

    const TrainingResult res = trainer.run(*attack, std::move(gar), observer);
    r.final_accuracy = res.final_accuracy;
    r.best_accuracy = res.best_accuracy;
    if (res.selection.rounds > 0) {
      r.honest_pass_rate = res.selection.honest_rate;
      r.malicious_pass_rate = res.selection.malicious_rate;
    }
    r.uplink_bytes = res.uplink_bytes;
    r.uplink_dense_bytes = res.uplink_dense_bytes;
    r.decode_rejects = res.decode_rejects;
    r.uplink_decoded_bytes = res.uplink_decoded_bytes;
    r.churned_total = res.churned_total;
    r.deadline_miss_total = res.deadline_miss_total;
    r.lost_uplink_total = res.lost_uplink_total;
    r.uplink_attempts = res.uplink_attempts;
    r.sim_time_ms = res.sim_time_ms;
    r.fallback_cmean_rounds = res.fallback_cmean_rounds;
    r.fallback_prev_rounds = res.fallback_prev_rounds;
    r.halted = res.halted;
    if (res.uplink_bytes > 0)
      r.compression_ratio = static_cast<float>(
          double(res.uplink_dense_bytes) / double(res.uplink_bytes));
    r.trace_checksum = fold;
    if (reg) r.obs_rounds = reg->rounds();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  r.cpu_seconds = thread_cpu_seconds() - cpu0;
  return r;
}

}  // namespace

std::vector<ScenarioResult> run_sweep(std::vector<ScenarioSpec> specs,
                                      const SweepOptions& opts) {
  // Canonical order: the result vector and the streamed JSONL are sorted
  // by scenario id, so output is independent of submission order. Ids
  // are built once per spec (decorate-sort), not per comparison.
  {
    std::vector<std::pair<std::string, ScenarioSpec>> keyed;
    keyed.reserve(specs.size());
    for (auto& s : specs) keyed.emplace_back(s.id(), std::move(s));
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    specs.clear();
    for (auto& kv : keyed) specs.push_back(std::move(kv.second));
  }
  const std::size_t n = specs.size();
  std::vector<ScenarioResult> results(n);
  if (n == 0) return results;

  // Datasets are shared: one Workload per distinct (kind, profile),
  // built sequentially before the parallel region.
  std::map<std::pair<int, int>, Workload> workloads;
  for (const auto& s : specs) {
    const auto key = std::make_pair(int(s.workload), int(s.profile));
    if (!workloads.count(key))
      workloads.emplace(key, make_workload(s.workload, s.profile, opts.scale));
  }

  std::mutex emit_mu;
  std::vector<char> finished(n, 0);
  std::size_t emitted = 0, done = 0;
  const auto finish = [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(emit_mu);
    finished[i] = 1;
    ++done;
    if (opts.progress) opts.progress(done, n, results[i]);
    // Flush the completed prefix: JSONL streams in canonical order.
    while (emitted < n && finished[emitted]) {
      if (opts.jsonl)
        write_jsonl_line(*opts.jsonl, results[emitted], opts.include_timing);
      ++emitted;
    }
  };
  const auto run_one = [&](std::size_t i) {
    const auto& s = specs[i];
    const auto& w =
        workloads.at(std::make_pair(int(s.workload), int(s.profile)));
    results[i] = run_scenario(s, w, opts);
    finish(i);
  };

  if (n == 1) {
    // A single scenario keeps the pool for its own nested kernels instead
    // of being pinned to one worker.
    run_one(0);
    return results;
  }

  // One lane per pool worker; lanes drain a shared atomic queue so long
  // and short scenarios balance. Each scenario runs entirely inside its
  // lane (nested parallelism is inline), so scheduling cannot affect the
  // results.
  std::atomic<std::size_t> next{0};
  common::parallel_chunks(
      std::min(common::thread_count(), n),
      [&](std::size_t, std::size_t, std::size_t) {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
          run_one(i);
      });
  return results;
}

void write_jsonl_line(std::ostream& os, const ScenarioResult& r,
                      bool include_timing) {
  const ScenarioSpec& s = r.spec;
  Out o{Out::kJson, "{\"id\":" + json_str(s.id())};
  for_active(s, [&](const Axis& a) {
    if (!a.active) a.write(s, r, o);
  });
  o.field("error", r.error.empty() ? "null" : json_str(r.error))
      .field("final_accuracy", json_num(r.final_accuracy))
      .field("best_accuracy", json_num(r.best_accuracy))
      .field("honest_pass_rate",
             r.honest_pass_rate < 0.0 ? "null" : json_num(r.honest_pass_rate))
      .field("malicious_pass_rate", r.malicious_pass_rate < 0.0
                                        ? "null"
                                        : json_num(r.malicious_pass_rate))
      .field("skipped_rounds", std::to_string(r.skipped_rounds))
      .field("dropped", std::to_string(r.dropped_total))
      .field("stragglers", std::to_string(r.straggler_total));
  for_active(s, [&](const Axis& a) {
    if (a.active) a.write(s, r, o);
  });
  if (r.halted) o.field("halted", "true");
  o.field("trace_checksum", json_hex(r.trace_checksum));
  std::string& line = o.text;
  if (!r.rounds.empty()) {
    line += ",\"round_checksums\":[";
    for (std::size_t i = 0; i < r.rounds.size(); ++i) {
      if (i > 0) line += ',';
      line += json_hex(r.rounds[i].aggregate_checksum);
    }
    line += ']';
  }
  // Observability block, gated like a registry axis but by the run's
  // options rather than the spec: absent with obs off, so existing
  // goldens keep their bytes. "c" holds the round's nonzero work
  // counters keyed "<stage>.<counter>" in stage-major canonical order
  // (deterministic — the CI thread-diff target); "ms" the per-stage
  // wall-clock, only under obs_timing.
  if (r.obs_counters && !r.obs_rounds.empty()) {
    line += ",\"obs\":[";
    for (std::size_t i = 0; i < r.obs_rounds.size(); ++i) {
      const obs::RoundCost& rc = r.obs_rounds[i];
      if (i > 0) line += ',';
      line += "{\"r\":" + std::to_string(rc.round) + ",\"c\":{";
      bool first = true;
      for (std::size_t st = 0; st < obs::kNumStages; ++st)
        for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
          if (rc.counters[st][c] == 0) continue;
          if (!first) line += ',';
          first = false;
          line += '"';
          line += obs::to_string(obs::Stage(st));
          line += '.';
          line += obs::to_string(obs::Counter(c));
          line += "\":" + std::to_string(rc.counters[st][c]);
        }
      line += '}';
      if (r.obs_timing) {
        line += ",\"ms\":{";
        first = true;
        for (std::size_t st = 0; st < obs::kNumStages; ++st) {
          if (rc.stage_ms[st] == 0.0) continue;
          if (!first) line += ',';
          first = false;
          line += '"';
          line += obs::to_string(obs::Stage(st));
          line += "\":" + json_num(rc.stage_ms[st]);
        }
        line += '}';
      }
      line += '}';
    }
    line += ']';
  }
  if (include_timing)
    o.field("wall_s", json_num(r.wall_seconds))
        .field("cpu_s", json_num(r.cpu_seconds));
  line += "}\n";
  os << line << std::flush;
}

std::string summary_table(const std::vector<ScenarioResult>& results) {
  // Group key: every registry label (all axes but attack and GAR).
  const auto group_of = [](const ScenarioResult& r) {
    Out o{Out::kLabel};
    for_active(r.spec, [&](const Axis& a) { a.write(r.spec, r, o); });
    std::string g = o.labels[0] + " (" + o.labels[1];
    for (std::size_t i = 2; i < o.labels.size(); ++i) g += ", " + o.labels[i];
    return g + ")";
  };

  // First-appearance orders keep the output aligned with the canonical
  // result order.
  std::vector<std::string> groups;
  std::map<std::string, std::vector<const ScenarioResult*>> by_group;
  for (const auto& r : results) {
    const std::string g = group_of(r);
    if (!by_group.count(g)) groups.push_back(g);
    by_group[g].push_back(&r);
  }

  std::string out;
  for (const auto& g : groups) {
    const auto& members = by_group[g];
    std::vector<std::string> attacks, gars;
    for (const auto* r : members) {
      if (std::find(attacks.begin(), attacks.end(), r->spec.attack) ==
          attacks.end())
        attacks.push_back(r->spec.attack);
      if (std::find(gars.begin(), gars.end(), r->spec.gar) == gars.end())
        gars.push_back(r->spec.gar);
    }
    std::vector<std::string> header = {"GAR"};
    header.insert(header.end(), attacks.begin(), attacks.end());
    TextTable table(header);
    for (const auto& gar : gars) {
      std::vector<std::string> row = {gar};
      for (const auto& attack : attacks) {
        std::string cell = "-";
        for (const auto* r : members) {
          if (r->spec.gar != gar || r->spec.attack != attack) continue;
          cell = r->error.empty() ? TextTable::fmt(r->best_accuracy) : "ERR";
          break;
        }
        row.push_back(std::move(cell));
      }
      table.add_row(std::move(row));
    }
    out += "[" + g + "]\n" + table.to_string() + "\n";
  }
  return out;
}

}  // namespace signguard::fl
