// train suite: the library GEMM against the plain-loop oracle
// (tests/oracles.h — the pre-GEMM scalar path), then per-layer kernel
// latency and end-to-end client-round throughput for the MLP / CNN / RNN
// workloads on the library path. Gated: the library GEMM's speedup over
// the oracle loop at small edge-tile shapes and at the flagship client's
// two large products, and the paper CNN's conv layers' speedup over the
// direct convolution loops — the guards against the tiled kernels
// regressing toward the scalar loops.
//
// Entries: params {backend}: "tiled" for the library kernel or layer,
// "ref" / "oracle" for the oracle loops, "tiled_vs_ref" /
// "layer_vs_oracle" for a speedup row (value = oracle time / library
// time, usec = library time).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fl/client.h"
#include "fl/experiment.h"
#include "microbench.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/models.h"
#include "nn/rnn.h"
#include "nn/workspace.h"
#include "oracles.h"

namespace signguard::microbench {
namespace {

// Times the layer's forward on a rotation of inputs, then its backward
// on the last one: backward_params_only with `first`, the only backward
// a model's first parameterized layer runs. Distinct inputs keep the
// branch predictor from learning a data-dependent kernel (max pooling's
// argmax) from one input it sees over and over.
void bench_layer(Run& run, const std::string& name, nn::Layer& layer,
                 const std::vector<nn::Tensor>& xs, bool first = false) {
  nn::Workspace ws;
  nn::Tensor y, gy, gx;
  ws.begin_pass();
  layer.forward(xs[0], y, ws);
  gy.resize(y.shape());
  for (std::size_t i = 0; i < gy.numel(); ++i)
    gy[i] = float(i % 7) * 0.1f - 0.3f;
  std::size_t next = 0;
  const double fwd = run.timer.time_usec([&] {
    ws.begin_pass();
    layer.forward(xs[next++ % xs.size()], y, ws);
  });
  run.record("layer", name + "_fwd", {{"backend", "tiled"}}, fwd, 1e6 / fwd,
             "runs/s");
  // Rewind the scratch cursor each iteration so repeated backwards
  // replay onto the same workspace slots instead of growing the arena
  // (which would fold allocation cost into the timing).
  const std::size_t after_fwd = ws.mark();
  const double bwd = run.timer.time_usec([&] {
    ws.rewind(after_fwd);
    if (first)
      layer.backward_params_only(gy, ws);
    else
      layer.backward(gy, gx, ws);
  });
  run.record("layer", name + "_bwd", {{"backend", "tiled"}}, bwd, 1e6 / bwd,
             "runs/s");
}

// Eight inputs of `shape`: normal draws, ReLU'd (about half exact zeros,
// the ties a pooling layer sees in the paper CNN).
std::vector<nn::Tensor> inputs(Rng& rng, std::vector<std::size_t> shape) {
  std::vector<nn::Tensor> xs;
  for (int i = 0; i < 8; ++i) {
    nn::Tensor& x = xs.emplace_back(shape);
    for (auto& v : x.flat()) v = std::max(0.0f, float(rng.normal()));
  }
  return xs;
}

void bench_layers(Run& run) {
  Rng rng(1);
  {
    nn::Linear lin(256, 128, rng);
    bench_layer(run, "linear_32x256x128", lin, inputs(rng, {32, 256}));
  }
  {
    // The flagship MLP's wide layer at its batch of 8: the forward is the
    // skinny NT product against a 4 MB weight.
    nn::Linear lin(768, 1300, rng);
    bench_layer(run, "linear_8x768x1300", lin, inputs(rng, {8, 768}));
  }
  {
    nn::Conv2d conv(6, 12, rng);
    bench_layer(run, "conv_8x6x16x16_oc12", conv,
                inputs(rng, {8, 6, 16, 16}));
  }
  // The paper CNN (make_small_cnn(16)) at its client batch of 8: its two
  // convs and the max pooling after each. conv1 is the first layer.
  {
    nn::Conv2d conv(1, 6, rng);
    bench_layer(run, "conv_8x1x16x16_oc6", conv, inputs(rng, {8, 1, 16, 16}),
                /*first=*/true);
  }
  {
    nn::Conv2d conv(6, 12, rng);
    bench_layer(run, "conv_8x6x8x8_oc12", conv, inputs(rng, {8, 6, 8, 8}));
  }
  {
    nn::MaxPool2 pool;
    bench_layer(run, "maxpool_8x6x16x16", pool, inputs(rng, {8, 6, 16, 16}));
  }
  {
    nn::MaxPool2 pool;
    bench_layer(run, "maxpool_8x12x8x8", pool, inputs(rng, {8, 12, 8, 8}));
  }
  {
    nn::RnnTanh rnn(16, 32, rng);
    bench_layer(run, "rnn_8x16_e16_h32", rnn, inputs(rng, {8, 16, 16}));
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

// Times `calls` on the oracle loops and on the library kernels in
// alternating slices of the budget, and records both and their speedup.
void bench_gemm_set(Run& run, const std::string& name,
                    const std::vector<GemmCall>& calls) {
  Rng rng(2);
  std::vector<std::vector<float>> a, b, c;
  double flops = 0.0;
  for (const GemmCall& g : calls) {
    a.push_back(rng.normal_vector(g.m * g.k));
    b.push_back(rng.normal_vector(g.k * g.n));
    c.emplace_back(g.m * g.n, 0.0f);
    flops += 2.0 * double(g.m) * g.n * g.k;
  }
  const auto set = [&](bool oracle_loop) {
    return [&, oracle_loop] {
      for (std::size_t i = 0; i < calls.size(); ++i) {
        const GemmCall& g = calls[i];
        (oracle_loop ? g.oracle : g.library)(
            g.m, g.n, g.k, a[i].data(), g.transpose_a ? g.m : g.k,
            b[i].data(), g.transpose_b ? g.k : g.n, c[i].data(), g.n,
            g.accumulate);
      }
    };
  };
  const auto [ref_usec, tiled_usec] =
      run.timer.time_usec_pair(set(true), set(false));
  run.record("gemm", name, {{"backend", "ref"}}, ref_usec,
             flops / (ref_usec * 1e-6) / 1e9, "GFLOP/s");
  run.record("gemm", name, {{"backend", "tiled"}}, tiled_usec,
             flops / (tiled_usec * 1e-6) / 1e9, "GFLOP/s");
  run.record("speedup", name, {{"backend", "tiled_vs_ref"}}, tiled_usec,
             ref_usec / tiled_usec, "x");
}

// The paper CNN's two convs (make_small_cnn(16)) at its client batch of
// 8, as a client step runs them: conv1's forward and
// backward_params_only (it is the first layer), conv2's forward and
// backward. Timed against oracle::ConvOracle's direct loops doing the
// same work, in alternating slices of the budget.
void bench_paper_cnn_conv(Run& run) {
  Rng rng(3);
  nn::Conv2d conv1(1, 6, rng), conv2(6, 12, rng);
  const nn::Tensor x1 = inputs(rng, {8, 1, 16, 16})[0];
  const nn::Tensor x2 = inputs(rng, {8, 6, 8, 8})[0];
  nn::Tensor gy1({8, 6, 16, 16}), gy2({8, 12, 8, 8}), y1, y2, gx2;
  for (auto& v : gy1.flat()) v = float(rng.normal());
  for (auto& v : gy2.flat()) v = float(rng.normal());
  nn::Workspace ws;
  const auto layers = [&] {
    ws.begin_pass();
    conv1.forward(x1, y1, ws);
    conv1.backward_params_only(gy1, ws);
    conv2.forward(x2, y2, ws);
    conv2.backward(gy2, gx2, ws);
  };
  const auto p1 = conv1.params(), p2 = conv2.params();
  const oracle::ConvOracle o1{1, 6, 16, 16, p1[0].value.data(),
                              p1[1].value.data()};
  const oracle::ConvOracle o2{6, 12, 8, 8, p2[0].value.data(),
                              p2[1].value.data()};
  std::vector<float> y1r(gy1.numel()), y2r(gy2.numel()), gx2r(x2.numel()),
      gw1(p1[0].grad.size()), gb1(6), gw2(p2[0].grad.size()), gb2(12);
  const auto oracles = [&] {
    for (std::size_t b = 0; b < 8; ++b)
      o1.forward(x1.data() + b * 256, y1r.data() + b * 6 * 256);
    o1.backward(x1.data(), gy1.data(), 8, gw1.data(), gb1.data(), nullptr);
    for (std::size_t b = 0; b < 8; ++b)
      o2.forward(x2.data() + b * 6 * 64, y2r.data() + b * 12 * 64);
    o2.backward(x2.data(), gy2.data(), 8, gw2.data(), gb2.data(),
                gx2r.data());
  };
  const auto [ref_usec, layer_usec] =
      run.timer.time_usec_pair(oracles, layers);
  run.record("layer", "paper_cnn_conv", {{"backend", "oracle"}}, ref_usec,
             1e6 / ref_usec, "runs/s");
  run.record("layer", "paper_cnn_conv", {{"backend", "tiled"}}, layer_usec,
             1e6 / layer_usec, "runs/s");
  run.record("speedup", "paper_cnn_conv", {{"backend", "layer_vs_oracle"}},
             layer_usec, ref_usec / layer_usec, "x");
}

// End-to-end: one client-round = sample a batch, forward, loss, backward,
// flatten the gradient — exactly fl::Client::compute_gradient_into.
void bench_client_round(Run& run, const std::string& name, fl::Workload w) {
  nn::Model model = w.model_factory(13);
  std::vector<std::size_t> shard(w.data.train.size());
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
  fl::Client client(&w.data.train, std::move(shard), 17);
  std::vector<float> grad(model.parameter_count());
  const double usec = run.timer.time_usec([&] {
    client.compute_gradient_into(grad, model, w.config.batch_size,
                                 w.config.weight_decay, false);
  });
  run.record("client_round", name, {{"backend", "tiled"}}, usec, 1e6 / usec,
             "runs/s");
}

}  // namespace

void train_suite(Run& run) {
  for (const std::size_t d : {128ul, 256ul})
    bench_gemm_set(run, "gemm_nn_" + std::to_string(d),
                   {{nn::gemm_nn, oracle::gemm_nn, d, d, d, false, false,
                     false}});
  // The five per-sample products the paper CNN's convs once lowered to
  // (make_small_cnn(16): conv1 6 channels over a 16x16 map from 1 input
  // channel, conv2 12 over 8x8 from 6): forward y = W cols, backward
  // gW += gy cols^T, and conv2's input gradient W^T gy. The layers no
  // longer call them; the set stays as the guard on the GEMM's partial
  // tiles, short k and skinny-NT swap at small shapes.
  bench_gemm_set(
      run, "cnn_conv",
      {{nn::gemm_nn, oracle::gemm_nn, 6, 256, 9, false, false, false},
       {nn::gemm_nt, oracle::gemm_nt, 6, 9, 256, false, true, true},
       {nn::gemm_nn, oracle::gemm_nn, 12, 64, 54, false, false, false},
       {nn::gemm_nt, oracle::gemm_nt, 12, 54, 64, false, true, true},
       {nn::gemm_tn, oracle::gemm_tn, 54, 64, 12, true, false, false}});
  // The flagship client step's two large products, in the 768-1300-10
  // MLP's wide layer at batch 8: the forward x W^T (the skinny-NT operand
  // swap reads W in place) and the weight gradient gW = gy^T x.
  bench_gemm_set(
      run, "flagship_mlp",
      {{nn::gemm_nt, oracle::gemm_nt, 8, 1300, 768, false, true, false},
       {nn::gemm_tn, oracle::gemm_tn, 1300, 768, 8, true, false, false}});
  bench_layers(run);
  bench_paper_cnn_conv(run);
  const auto workload = [](fl::WorkloadKind kind, fl::ModelProfile profile) {
    return fl::make_workload(kind, profile, fl::Scale::kSmoke);
  };
  bench_client_round(
      run, "mlp",
      workload(fl::WorkloadKind::kMnistLike, fl::ModelProfile::kGrid));
  bench_client_round(
      run, "cnn",
      workload(fl::WorkloadKind::kMnistLike, fl::ModelProfile::kPaper));
  bench_client_round(
      run, "rnn",
      workload(fl::WorkloadKind::kAgNewsLike, fl::ModelProfile::kPaper));
  // The flagship round's client: the d=1,012,710 768-1300-10 MLP on
  // CIFAR-like data at batch 8.
  fl::Workload flagship =
      workload(fl::WorkloadKind::kCifarLike, fl::ModelProfile::kGrid);
  flagship.model_factory = [](std::uint64_t seed) {
    return nn::make_mlp(768, 1300, 10, seed);
  };
  flagship.config.batch_size = 8;
  bench_client_round(run, "flagship_mlp", std::move(flagship));
}

}  // namespace signguard::microbench
