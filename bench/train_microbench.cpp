// NN training microbench: per-layer kernel latency and end-to-end
// client-round throughput for the MLP / CNN / RNN workloads, on both GEMM
// backends (tiled vs the plain-loop reference — the pre-GEMM scalar
// path). Emits machine-readable JSON (default BENCH_train.json) for the
// bench trajectory and CI artifact upload.
//
// Usage:
//   ./train_microbench [--json=BENCH_train.json] [--min-ms=80]
//                      [--assert-cnn-speedup=1.2]
//
// --assert-cnn-speedup makes the binary exit non-zero unless the tiled
// backend beats the reference backend on CNN end-to-end client-round
// throughput by at least the given factor — CI uses it as a smoke guard
// against a silent fallback to the reference loops.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fl/client.h"
#include "fl/experiment.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/rnn.h"
#include "nn/workspace.h"

namespace signguard {
namespace {

// Warm up once (first-touch allocation, cache fill), then keep the
// fastest batch-of-8 average.
obs::StopwatchReporter timer(80.0, /*warmup=*/1, /*batch=*/8);

struct Entry {
  std::string group, name, backend;
  double usec = 0.0;
  double per_sec = 0.0;
};

std::vector<Entry> entries;

void record(const std::string& group, const std::string& name,
            nn::GemmBackend backend, double usec) {
  Entry e;
  e.group = group;
  e.name = name;
  e.backend = backend == nn::GemmBackend::kTiled ? "tiled" : "ref";
  e.usec = usec;
  e.per_sec = 1e6 / usec;
  entries.push_back(e);
  std::printf("%-14s %-24s %-6s %10.1f us  %10.1f /s\n", group.c_str(),
              name.c_str(), e.backend.c_str(), usec, e.per_sec);
}

void bench_layer(const std::string& name, nn::Layer& layer,
                 const nn::Tensor& x) {
  nn::Workspace ws;
  nn::Tensor y, gy, gx;
  for (const auto backend :
       {nn::GemmBackend::kReference, nn::GemmBackend::kTiled}) {
    nn::set_gemm_backend(backend);
    ws.begin_pass();
    layer.forward(x, y, ws);
    gy.resize(y.shape());
    for (std::size_t i = 0; i < gy.numel(); ++i)
      gy[i] = float(i % 7) * 0.1f - 0.3f;
    record("layer", name + "_fwd", backend, timer.time_usec([&] {
             ws.begin_pass();
             layer.forward(x, y, ws);
           }));
    // Rewind the scratch cursor each iteration so repeated backwards
    // replay onto the same workspace slots instead of growing the arena
    // (which would fold allocation cost into the timing).
    const std::size_t after_fwd = ws.mark();
    record("layer", name + "_bwd", backend, timer.time_usec([&] {
             ws.rewind(after_fwd);
             layer.zero_grad();
             layer.backward(gy, gx, ws);
           }));
  }
}

void bench_layers() {
  Rng rng(1);
  {
    nn::Linear lin(256, 128, rng);
    nn::Tensor x({32, 256});
    for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
    bench_layer("linear_32x256x128", lin, x);
  }
  {
    // The flagship MLP's wide layer at its batch of 8: the forward is the
    // skinny NT product against a 4 MB weight.
    nn::Linear lin(768, 1300, rng);
    nn::Tensor x({8, 768});
    for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
    bench_layer("linear_8x768x1300", lin, x);
  }
  {
    nn::Conv2d conv(6, 12, rng);
    nn::Tensor x({8, 6, 16, 16});
    for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
    bench_layer("conv_8x6x16x16_oc12", conv, x);
  }
  {
    nn::RnnTanh rnn(16, 32, rng, nn::RnnOutput::kMeanPool);
    nn::Tensor x({8, 16, 16});
    for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
    bench_layer("rnn_8x16_e16_h32", rnn, x);
  }
}

void bench_gemm() {
  Rng rng(2);
  for (const std::size_t d : {128ul, 256ul}) {
    const std::vector<float> a = rng.normal_vector(d * d);
    const std::vector<float> b = rng.normal_vector(d * d);
    std::vector<float> c(d * d, 0.0f);
    for (const auto backend :
         {nn::GemmBackend::kReference, nn::GemmBackend::kTiled}) {
      nn::set_gemm_backend(backend);
      const double usec = timer.time_usec([&] {
        nn::gemm_nn(d, d, d, a.data(), d, b.data(), d, c.data(), d, false);
      });
      Entry e;
      e.group = "gemm";
      e.name = "gemm_nn_" + std::to_string(d);
      e.backend = backend == nn::GemmBackend::kTiled ? "tiled" : "ref";
      e.usec = usec;
      e.per_sec = 2.0 * double(d) * d * d / (usec * 1e-6) / 1e9;  // GFLOP/s
      entries.push_back(e);
      std::printf("%-14s %-24s %-6s %10.1f us  %10.2f GFLOP/s\n", "gemm",
                  e.name.c_str(), e.backend.c_str(), usec, e.per_sec);
    }
  }
}

// End-to-end: one client-round = sample a batch, forward, loss, backward,
// flatten the gradient — exactly fl::Client::compute_gradient_into.
double bench_client_round(fl::Workload& w, nn::GemmBackend backend) {
  nn::set_gemm_backend(backend);
  nn::Model model = w.model_factory(13);
  std::vector<std::size_t> shard(w.data.train.size());
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
  fl::Client client(&w.data.train, std::move(shard), 17);
  std::vector<float> grad(model.parameter_count());
  const double usec = timer.time_usec([&] {
    client.compute_gradient_into(grad, model, w.config.batch_size,
                                 w.config.weight_decay, false);
  });
  return usec;
}

double bench_workload(const std::string& name, fl::Workload w) {
  const double ref_usec = bench_client_round(w, nn::GemmBackend::kReference);
  record("client_round", name, nn::GemmBackend::kReference, ref_usec);
  const double tiled_usec = bench_client_round(w, nn::GemmBackend::kTiled);
  record("client_round", name, nn::GemmBackend::kTiled, tiled_usec);
  const double speedup = ref_usec / tiled_usec;
  std::printf("%-14s %-24s speedup %.2fx\n", "client_round", name.c_str(),
              speedup);
  Entry e;
  e.group = "speedup";
  e.name = name;
  e.backend = "tiled_vs_ref";
  e.usec = tiled_usec;
  e.per_sec = speedup;
  entries.push_back(e);
  return speedup;
}

void write_json(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"schema\": \"signguard/train_microbench/v1\",\n"
      << "  \"threads\": " << common::thread_count() << ",\n"
      << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "    {\"group\": \"" << e.group << "\", \"name\": \"" << e.name
        << "\", \"backend\": \"" << e.backend
        << "\", \"usec\": " << obs::StopwatchReporter::json_num(e.usec)
        << ", \"rate\": " << obs::StopwatchReporter::json_num(e.per_sec)
        << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu entries)\n", path.c_str(), entries.size());
}

}  // namespace
}  // namespace signguard

int main(int argc, char** argv) {
  using namespace signguard;
  bench::banner("train_microbench", fl::scale_from_env());
  timer.set_min_ms(
      std::stod(bench::arg_value(argc, argv, "min-ms", "80")));
  const std::string json_path =
      bench::arg_value(argc, argv, "json", "BENCH_train.json");
  const std::string assert_arg =
      bench::arg_value(argc, argv, "assert-cnn-speedup", "");

  bench_gemm();
  bench_layers();
  const auto workload = [](fl::WorkloadKind kind, fl::ModelProfile profile) {
    return fl::make_workload(kind, profile, fl::Scale::kSmoke);
  };
  const double mlp = bench_workload(
      "mlp", workload(fl::WorkloadKind::kMnistLike, fl::ModelProfile::kGrid));
  const double cnn = bench_workload(
      "cnn", workload(fl::WorkloadKind::kMnistLike, fl::ModelProfile::kPaper));
  const double rnn = bench_workload(
      "rnn", workload(fl::WorkloadKind::kAgNewsLike, fl::ModelProfile::kPaper));
  // The flagship round's client: the d=1,012,710 768-1300-10 MLP on
  // CIFAR-like data at batch 8.
  fl::Workload flagship =
      workload(fl::WorkloadKind::kCifarLike, fl::ModelProfile::kGrid);
  flagship.model_factory = [](std::uint64_t seed) {
    return nn::make_mlp(768, 1300, 10, seed);
  };
  flagship.config.batch_size = 8;
  const double flagship_mlp =
      bench_workload("flagship_mlp", std::move(flagship));
  std::printf("\nend-to-end client-round speedups: mlp %.2fx  cnn %.2fx  "
              "rnn %.2fx  flagship_mlp %.2fx\n",
              mlp, cnn, rnn, flagship_mlp);
  write_json(json_path);

  if (!assert_arg.empty()) {
    const double need = std::stod(assert_arg);
    if (cnn < need) {
      std::fprintf(stderr,
                   "FAIL: tiled CNN client-round speedup %.2fx < required "
                   "%.2fx — GEMM path regressed or silently fell back\n",
                   cnn, need);
      return 1;
    }
    std::printf("cnn speedup %.2fx >= required %.2fx\n", cnn, need);
  }
  return 0;
}
