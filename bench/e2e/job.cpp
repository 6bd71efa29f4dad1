#include "job.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "comm/codec.h"
#include "comm/wire.h"
#include "common/hash.h"
#include "obs/trace.h"

namespace signguard::e2e {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return double(t.tv_sec) + 1e-6 * double(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kb / 1024.0;
}

namespace {

// Thrown from begin_round(0) of a set-up-only job; caught by the runner.
struct SetupDone {};

// Forwards every Attack virtual to the workload's attack, timestamping
// round starts and timing craft(). name() must forward too: it feeds the
// trainer's checkpoint config hash.
class TimedAttack final : public attacks::Attack {
 public:
  TimedAttack(std::unique_ptr<attacks::Attack> inner, const Workload& w,
              const JobOptions& opt, TrainerJobResult& res)
      : inner_(std::move(inner)), w_(w), opt_(opt), res_(res) {}

  std::vector<Clock::time_point> round_begins;
  std::optional<obs::Span> prologue_span;

  void begin_round(std::size_t round, Rng& rng) override {
    round_begins.push_back(Clock::now());
    if (round == 0) {
      prologue_span.reset();
      if (opt_.setup_only) throw SetupDone{};
    }
    inner_->begin_round(round, rng);
  }
  bool flips_labels() const override { return inner_->flips_labels(); }
  std::vector<std::vector<float>> craft(
      const attacks::AttackContext& ctx) override {
    const auto t0 = Clock::now();
    std::vector<std::vector<float>> out;
    {
      obs::Span span("e2e/attack.craft", std::int64_t(ctx.round));
      out = inner_->craft(ctx);
    }
    res_.craft_ms += seconds_since(t0) * 1e3;
    ++res_.craft_calls;
    if (opt_.capture && ctx.round == w_.capture_round) capture(ctx, out);
    return out;
  }
  std::string name() const override { return inner_->name(); }
  void observe_round(const attacks::RoundFeedback& fb) override {
    inner_->observe_round(fb);
  }
  void serialize_state(common::ByteWriter& wr) const override {
    inner_->serialize_state(wr);
  }
  void restore_state(common::ByteReader& r) override {
    inner_->restore_state(r);
  }

 private:
  void capture(const attacks::AttackContext& ctx,
               const std::vector<std::vector<float>>& crafted) {
    RoundSnapshot& s = res_.snapshot;
    s.m = crafted.size();
    s.d = ctx.benign_grads.front().size();
    const std::size_t n = s.m + ctx.benign_grads.size();
    s.sample_row.assign(ctx.benign_grads.front().begin(),
                        ctx.benign_grads.front().end());
    const auto row = [&](std::size_t i) -> std::span<const float> {
      return i < s.m ? std::span<const float>(crafted[i])
                     : ctx.benign_grads[i - s.m];
    };
    const comm::CompressionSpec& spec = w_.trainer.config.compression;
    if (spec.codec == comm::CodecKind::kNone) {
      s.dense.resize(n, s.d);
      for (std::size_t i = 0; i < n; ++i)
        std::copy(row(i).begin(), row(i).end(), s.dense.row(i).begin());
    } else {
      // Benign rows arrive already decoded; re-encoding reproduces their
      // uplink bytes exactly (encode(decode(encode(x))) == encode(x)).
      const auto codec = comm::make_codec(spec);
      std::vector<comm::CodecScratch> scratch;
      s.uplinks.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        comm::encode_into(*codec, row(i), s.uplinks[i], scratch);
    }
    s.taken = true;
  }

  std::unique_ptr<attacks::Attack> inner_;
  const Workload& w_;
  const JobOptions& opt_;
  TrainerJobResult& res_;
};

void remove_checkpoint(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".tmp", ec);
}

}  // namespace

TrainerJobResult run_trainer_job(const Workload& w, const JobOptions& opt) {
  const TrainerJob& job = w.trainer;
  TrainerJobResult res;
  remove_checkpoint(job.config.checkpoint.path);
  const auto t0 = Clock::now();
  obs::Span job_span("e2e/job");

  std::optional<data::TrainTest> data;
  {
    obs::Span span("e2e/synth");
    data.emplace(job.make_data());
  }
  res.synth_s = seconds_since(t0);

  std::optional<obs::MetricsRegistry> reg;
  fl::TrainerConfig cfg = job.config;
  if (opt.traced) {
    reg.emplace(true);
    cfg.metrics = &*reg;
  }
  fl::Trainer trainer(*data, job.model_factory, cfg);
  TimedAttack attack(job.make_attack(), w, opt, res);
  auto gar = job.make_gar();

  std::optional<double> target_at;
  std::uint64_t dense_bytes = 0;  // f32 cost of every transmitted uplink
  const auto observer = [&](const fl::RoundObservation& o) {
    ++res.attempted;
    if (o.skipped || o.outcome != fl::RoundOutcome::kProceed) ++res.failed;
    res.checksums.push_back(
        o.aggregate.empty()
            ? 0
            : common::fnv1a64(o.aggregate.data(),
                              o.aggregate.size() * sizeof(float)));
    if (o.test_accuracy) {
      res.evals.emplace_back(o.round, *o.test_accuracy);
      if (!target_at && *o.test_accuracy >= job.target_acc)
        target_at = seconds_since(t0);
    }
    if (!o.aggregate.empty()) res.dim = o.aggregate.size();
    for (const float v : o.aggregate)
      res.finite = res.finite && std::isfinite(v);
    dense_bytes += o.uplink_dense_bytes;
  };

  const auto t_run = Clock::now();
  const double cpu0 = process_cpu_seconds();
  attack.prologue_span.emplace("e2e/run_prologue");
  fl::TrainingResult tr;
  try {
    tr = trainer.run(attack, std::move(gar), observer);
  } catch (const SetupDone&) {
    // A set-up-only job ends here, at begin_round(0).
  }
  const auto t_end = Clock::now();
  const auto& b = attack.round_begins;
  res.setup_s = std::chrono::duration<double>(b.front() - t0).count();
  res.prologue_s = std::chrono::duration<double>(b.front() - t_run).count();
  if (opt.setup_only) return res;
  res.cpu_s = process_cpu_seconds() - cpu0;
  res.run_s = std::chrono::duration<double>(t_end - t_run).count();
  for (std::size_t r = 0; r < b.size(); ++r)
    res.round_ms.push_back(std::chrono::duration<double, std::milli>(
                               (r + 1 < b.size() ? b[r + 1] : t_end) - b[r])
                               .count());
  res.time_to_target_s = target_at.value_or(-1.0);
  res.acc_best = tr.best_accuracy;
  if (tr.selection.rounds > 0) res.mal_pass = tr.selection.malicious_rate;
  res.uplink_bytes = tr.uplink_bytes;
  if (res.dim > 0) res.transmitters = dense_bytes / (4 * res.dim);
  if (reg) res.costs = reg->rounds();
  remove_checkpoint(job.config.checkpoint.path);
  return res;
}

SweepJobResult run_sweep_job(const Workload& w, bool traced,
                             bool prologue_only) {
  SweepJobResult res;
  {
    obs::Span span("e2e/sweep_prologue");
    const auto t0 = Clock::now();
    w.sweep.prologue();
    res.prologue_s = seconds_since(t0);
  }
  if (prologue_only) return res;
  fl::SweepOptions opts;
  opts.scale = fl::Scale::kDefault;
  opts.capture_rounds = false;
  opts.obs_counters = traced;
  opts.obs_timing = traced;
  obs::Span span("e2e/sweep");
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  res.cells = fl::run_sweep(w.sweep.specs, opts);
  res.cpu_s = process_cpu_seconds() - cpu0;
  res.wall_s = seconds_since(t0);
  return res;
}

}  // namespace signguard::e2e
