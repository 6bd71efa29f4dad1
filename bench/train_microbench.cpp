// NN training microbench: the library GEMM against the plain-loop oracle
// (tests/oracles.h — the pre-GEMM scalar path), then per-layer kernel
// latency and end-to-end client-round throughput for the MLP / CNN / RNN
// workloads on the library path. Emits machine-readable JSON (default
// BENCH_train.json) for the bench trajectory and CI artifact upload.
//
// Usage:
//   ./train_microbench [--json=BENCH_train.json] [--min-ms=80]
//                      [--assert-cnn-speedup=1.48]
//
// --assert-cnn-speedup makes the binary exit non-zero unless the library
// GEMM beats the oracle loop by at least the given factor over the CNN
// workload's conv GEMM shapes — CI uses it as a smoke guard against the
// tiled kernel regressing toward the scalar loop.

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
#include "oracles.h"

namespace signguard {
namespace {

// Warm up once (first-touch allocation, cache fill), then keep the
// fastest batch-of-8 average.
obs::StopwatchReporter timer(80.0, /*warmup=*/1, /*batch=*/8);

struct Entry {
  std::string group, name, backend;
  double usec = 0.0;
  double rate = 0.0;  // runs/s, GFLOP/s, or the speedup factor
};

std::vector<Entry> entries;

// `backend` is "tiled" for the library kernel, "ref" for the oracle loop.
void record(const std::string& group, const std::string& name,
            const std::string& backend, double usec, double rate) {
  entries.push_back({group, name, backend, usec, rate});
  std::printf("%-14s %-24s %-12s %10.1f us  %10.2f\n", group.c_str(),
              name.c_str(), backend.c_str(), usec, rate);
}

void bench_layer(const std::string& name, nn::Layer& layer,
                 const nn::Tensor& x) {
  nn::Workspace ws;
  nn::Tensor y, gy, gx;
  ws.begin_pass();
  layer.forward(x, y, ws);
  gy.resize(y.shape());
  for (std::size_t i = 0; i < gy.numel(); ++i)
    gy[i] = float(i % 7) * 0.1f - 0.3f;
  const double fwd = timer.time_usec([&] {
    ws.begin_pass();
    layer.forward(x, y, ws);
  });
  record("layer", name + "_fwd", "tiled", fwd, 1e6 / fwd);
  // Rewind the scratch cursor each iteration so repeated backwards
  // replay onto the same workspace slots instead of growing the arena
  // (which would fold allocation cost into the timing).
  const std::size_t after_fwd = ws.mark();
  const double bwd = timer.time_usec([&] {
    ws.rewind(after_fwd);
    layer.zero_grad();
    layer.backward(gy, gx, ws);
  });
  record("layer", name + "_bwd", "tiled", bwd, 1e6 / bwd);
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

using GemmFn = void (*)(std::size_t, std::size_t, std::size_t, const float*,
                        std::size_t, const float*, std::size_t, float*,
                        std::size_t, bool);

// One GEMM call in both implementations; operands are row-major with
// the tightest leading dimensions for the orientation.
struct GemmCall {
  GemmFn library, oracle;
  std::size_t m, n, k;
  bool transpose_a, transpose_b, accumulate;
};

// Times `calls` back to back on the library kernels, then on the oracle
// loops, records both, and returns oracle time / library time.
double bench_gemm_set(const std::string& name,
                      const std::vector<GemmCall>& calls, double flops) {
  Rng rng(2);
  std::vector<std::vector<float>> a, b, c;
  for (const GemmCall& g : calls) {
    a.push_back(rng.normal_vector(g.m * g.k));
    b.push_back(rng.normal_vector(g.k * g.n));
    c.emplace_back(g.m * g.n, 0.0f);
  }
  const auto run = [&](bool oracle_loop) {
    return timer.time_usec([&] {
      for (std::size_t i = 0; i < calls.size(); ++i) {
        const GemmCall& g = calls[i];
        (oracle_loop ? g.oracle : g.library)(
            g.m, g.n, g.k, a[i].data(), g.transpose_a ? g.m : g.k,
            b[i].data(), g.transpose_b ? g.k : g.n, c[i].data(), g.n,
            g.accumulate);
      }
    });
  };
  const double ref_usec = run(true);
  const double tiled_usec = run(false);
  record("gemm", name, "ref", ref_usec, flops / (ref_usec * 1e-6) / 1e9);
  record("gemm", name, "tiled", tiled_usec,
         flops / (tiled_usec * 1e-6) / 1e9);
  const double speedup = ref_usec / tiled_usec;
  record("speedup", name, "tiled_vs_ref", tiled_usec, speedup);
  return speedup;
}

void bench_square_gemms() {
  for (const std::size_t d : {128ul, 256ul})
    bench_gemm_set("gemm_nn_" + std::to_string(d),
                   {{nn::gemm_nn, oracle::gemm_nn, d, d, d, false, false,
                     false}},
                   2.0 * double(d) * d * d);
}

// The CNN workload's conv GEMMs (make_small_cnn(16): conv1 6 channels
// over a 16x16 map from 1 input channel, conv2 12 over 8x8 from 6) for
// one sample of its batch-8 client round: forward y = W cols, backward
// gW += gy cols^T, and conv2's input gradient W^T gy (conv1, the first
// layer, skips it).
double bench_cnn_conv_gemms() {
  const std::vector<GemmCall> calls = {
      {nn::gemm_nn, oracle::gemm_nn, 6, 256, 9, false, false, false},
      {nn::gemm_nt, oracle::gemm_nt, 6, 9, 256, false, true, true},
      {nn::gemm_nn, oracle::gemm_nn, 12, 64, 54, false, false, false},
      {nn::gemm_nt, oracle::gemm_nt, 12, 54, 64, false, true, true},
      {nn::gemm_tn, oracle::gemm_tn, 54, 64, 12, true, false, false},
  };
  double flops = 0.0;
  for (const GemmCall& g : calls) flops += 2.0 * double(g.m) * g.n * g.k;
  return bench_gemm_set("cnn_conv", calls, flops);
}

// End-to-end: one client-round = sample a batch, forward, loss, backward,
// flatten the gradient — exactly fl::Client::compute_gradient_into.
void bench_client_round(const std::string& name, fl::Workload w) {
  nn::Model model = w.model_factory(13);
  std::vector<std::size_t> shard(w.data.train.size());
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
  fl::Client client(&w.data.train, std::move(shard), 17);
  std::vector<float> grad(model.parameter_count());
  const double usec = timer.time_usec([&] {
    client.compute_gradient_into(grad, model, w.config.batch_size,
                                 w.config.weight_decay, false);
  });
  record("client_round", name, "tiled", usec, 1e6 / usec);
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
        << ", \"rate\": " << obs::StopwatchReporter::json_num(e.rate)
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

  bench_square_gemms();
  const double cnn = bench_cnn_conv_gemms();
  bench_layers();
  const auto workload = [](fl::WorkloadKind kind, fl::ModelProfile profile) {
    return fl::make_workload(kind, profile, fl::Scale::kSmoke);
  };
  bench_client_round(
      "mlp", workload(fl::WorkloadKind::kMnistLike, fl::ModelProfile::kGrid));
  bench_client_round(
      "cnn", workload(fl::WorkloadKind::kMnistLike, fl::ModelProfile::kPaper));
  bench_client_round("rnn", workload(fl::WorkloadKind::kAgNewsLike,
                                     fl::ModelProfile::kPaper));
  // The flagship round's client: the d=1,012,710 768-1300-10 MLP on
  // CIFAR-like data at batch 8.
  fl::Workload flagship =
      workload(fl::WorkloadKind::kCifarLike, fl::ModelProfile::kGrid);
  flagship.model_factory = [](std::uint64_t seed) {
    return nn::make_mlp(768, 1300, 10, seed);
  };
  flagship.config.batch_size = 8;
  bench_client_round("flagship_mlp", std::move(flagship));
  write_json(json_path);

  if (!assert_arg.empty()) {
    const double need = std::stod(assert_arg);
    if (cnn < need) {
      std::fprintf(stderr,
                   "FAIL: library GEMM speedup over the oracle loop at the "
                   "CNN conv shapes %.2fx < required %.2fx\n",
                   cnn, need);
      return 1;
    }
    std::printf("cnn conv GEMM speedup %.2fx >= required %.2fx\n", cnn,
                need);
  }
  return 0;
}
