// Layer probes: each times one public entry point, best-of-k, at the
// workload's real shape and on a round the workload itself produced.
// Best-of-k keeps a probe steady; it reads as the layer's cost with warm
// caches, not as its share of a round (the traced run gives that).

#include "probes.h"

#include <string>

#include "aggregators/sharded.h"
#include "comm/stats.h"
#include "comm/wire.h"
#include "common/gradient_stats.h"
#include "common/parallel.h"
#include "core/signguard.h"
#include "fl/chaos.h"
#include "fl/client.h"
#include "fl/experiment.h"
#include "obs/trace.h"

namespace signguard::e2e {
namespace {

// Fastest of at least `min_reps` runs, repeating until `budget_ms` of
// wall time is spent. Milliseconds. (Not bench_common.h's timer: the
// benchmark's measuring code stays under bench/e2e, so changes to the
// microbench harness never change what this benchmark measures.)
template <class F>
double best_ms(const char* name, F&& op, int min_reps = 3,
               double budget_ms = 300.0) {
  obs::Span span(name);
  double best = 1e300;
  const auto start = Clock::now();
  for (int rep = 0; rep < min_reps || seconds_since(start) * 1e3 < budget_ms;
       ++rep) {
    const auto t0 = Clock::now();
    op();
    best = std::min(best, seconds_since(t0) * 1e3);
  }
  return best;
}

// One client's mini-batch gradient, run as a trainer pool worker runs it
// (inside a parallel region, so the model's kernels stay on one thread).
double client_grad_us(const data::TrainTest& data,
                      const fl::ModelFactory& factory, std::size_t batch,
                      double weight_decay) {
  std::vector<std::size_t> shard(std::min<std::size_t>(64, data.train.size()));
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
  fl::Client client(&data.train, shard, 1);
  nn::Model model = factory(1);
  std::vector<float> out(model.parameter_count());
  double ms = 0.0;
  common::parallel_chunks(1, [&](std::size_t, std::size_t, std::size_t) {
    ms = best_ms("e2e/probe/client_grad", [&] {
      client.compute_gradient_into(out, model, batch, weight_decay, false);
    }, 5);
  });
  return ms * 1e3;
}

}  // namespace

void run_probes(const Workload& w, const RoundSnapshot& snap, Metrics& out) {
  const TrainerJob& job = w.trainer;
  const fl::TrainerConfig& cfg = job.config;
  {
    const data::TrainTest data = job.make_data();
    out["nn.client_grad_us"] = {
        client_grad_us(data, job.model_factory, cfg.batch_size,
                       cfg.weight_decay),
        "us"};
  }
  const std::size_t d = snap.d;
  const double dense_gb = 4.0 * double(d) * 1e-9;
  agg::GarContext gctx;
  gctx.assumed_byzantine = snap.m;
  Rng gar_rng(1);
  gctx.rng = &gar_rng;

  // Codec probes at the workload's codec; the chaos engine turns the
  // identity transport on even without one.
  if (cfg.compression.codec != comm::CodecKind::kNone || cfg.chaos.active()) {
    const auto codec = comm::make_codec(cfg.compression);
    const std::vector<float>& row = snap.sample_row;
    std::vector<comm::CodecScratch> scratch;
    std::vector<std::uint8_t> buf;
    std::vector<float> back(d);
    const double enc = best_ms("e2e/probe/encode", [&] {
      comm::encode_into(*codec, row, buf, scratch);
    });
    const double dec = best_ms("e2e/probe/decode", [&] {
      if (comm::decode_into(*codec, buf, back) != comm::DecodeStatus::kOk)
        throw std::runtime_error("probe: decode rejected an encoded row");
    });
    const double val = best_ms("e2e/probe/validate", [&] {
      if (comm::validate(*codec, buf, d) != comm::DecodeStatus::kOk)
        throw std::runtime_error("probe: validate rejected an encoded row");
    });
    out["comm.encode_gbps"] = {dense_gb / (enc * 1e-3), "GB/s"};
    out["comm.decode_gbps"] = {dense_gb / (dec * 1e-3), "GB/s"};
    out["comm.validate_gbps"] = {dense_gb / (val * 1e-3), "GB/s"};

    if (!snap.uplinks.empty()) {
      comm::WireRound wire;
      wire.codec = codec.get();
      wire.uplinks = snap.uplinks;
      wire.d = d;
      out["comm.wire_norms_ms"] = {
          best_ms("e2e/probe/wire_norms", [&] { comm::wire_row_norms(wire); }),
          "ms"};
      core::SignGuardConfig sgc = core::plain_config(1);
      Rng coord_rng(1);
      const auto coords =
          select_coordinates(d, sgc.cluster.coord_frac, coord_rng);
      const comm::CoordMask mask(d, codec->chunk(), coords);
      out["comm.wire_signstats_ms"] = {
          best_ms("e2e/probe/wire_signstats",
                  [&] { comm::wire_sign_stats(wire, mask); }),
          "ms"};
      core::SignGuard sg(sgc);
      out["core.signguard_ms"] = {
          best_ms("e2e/probe/signguard_wire",
                  [&] { sg.aggregate_wire(wire, gctx); }),
          "ms"};
    }
  }

  if (cfg.chaos.active()) {
    fl::ChaosEngine engine(cfg.n_clients, cfg.chaos, 1);
    const std::size_t n = cfg.n_clients;
    const double ms = best_ms("e2e/probe/chaos_uplink", [&] {
      for (std::size_t i = 0; i < n; ++i) engine.simulate_uplink(i, 1);
    });
    out["fl.chaos_uplink_us"] = {ms * 1e3 / double(n), "us"};
  }

  if (!snap.dense.empty()) {
    auto gar = job.make_gar();
    const double ms = best_ms("e2e/probe/gar", [&] {
      gar->aggregate(snap.dense, gctx);
    });
    if (dynamic_cast<const agg::ShardedAggregator*>(gar.get()) != nullptr)
      out["aggregators.sharded_ms"] = {ms, "ms"};
    else if (dynamic_cast<const core::SignGuard*>(gar.get()) != nullptr)
      out["core.signguard_ms"] = {ms, "ms"};
  }
}

void run_sweep_probes(Metrics& out) {
  const fl::Workload grid = fl::make_workload(
      fl::WorkloadKind::kMnistLike, fl::ModelProfile::kGrid,
      fl::Scale::kDefault);
  out["nn.client_grad_us"] = {
      client_grad_us(grid.data, grid.model_factory, grid.config.batch_size,
                     grid.config.weight_decay),
      "us"};
}

}  // namespace signguard::e2e
