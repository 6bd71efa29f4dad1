// GEMM / convolution / pooling execution-path tests. The tiled GEMM's
// determinism contract is bitwise: per output element, one float
// accumulator and a strictly ascending k loop, regardless of tile
// boundaries or thread count. These tests pin that contract — against
// the plain-loop oracles (tests/oracles.h): the triple loop over awkward
// shapes, the direct convolution loops for Conv2d, the branchy window
// scan for max pooling — and against workspace growth across identical
// rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/models.h"
#include "nn/tensor.h"
#include "nn/workspace.h"
#include "obs/metrics.h"
#include "oracles.h"

namespace signguard::nn {
namespace {

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// `v`, a tight rows x cols matrix, stored at leading dimension cols + pad
// with the pad floats after each row NaN, so a kernel that reads one
// puts a NaN into its output.
std::vector<float> padded(const std::vector<float>& v, std::size_t rows,
                          std::size_t cols, std::size_t pad) {
  if (pad == 0) return v;
  std::vector<float> out(rows * (cols + pad),
                         std::numeric_limits<float>::quiet_NaN());
  for (std::size_t i = 0; i < rows; ++i)
    std::copy_n(v.data() + i * cols, cols, out.data() + i * (cols + pad));
  return out;
}

enum class Kind { kNN, kNT, kTN };

// Runs one of the three gemm orientations on the library kernel or on
// the oracle's plain loop.
void run_gemm(Kind kind, bool oracle_loop, std::size_t m, std::size_t n,
              std::size_t k, const float* a, std::size_t lda, const float* b,
              std::size_t ldb, float* c, std::size_t ldc, bool accumulate) {
  using Fn = void (*)(std::size_t, std::size_t, std::size_t, const float*,
                      std::size_t, const float*, std::size_t, float*,
                      std::size_t, bool);
  static constexpr Fn kLibrary[] = {gemm_nn, gemm_nt, gemm_tn};
  static constexpr Fn kOracle[] = {oracle::gemm_nn, oracle::gemm_nt,
                                   oracle::gemm_tn};
  (oracle_loop ? kOracle : kLibrary)[int(kind)](m, n, k, a, lda, b, ldb, c,
                                                ldc, accumulate);
}

constexpr std::size_t kTightLd[] = {0};

// The library kernel runs once per pool size in `threads` (once on the
// current pool when empty) and per entry of `pads`, and must match the
// oracle byte for byte each time. A pad stores A and B that many floats
// wider than the tight leading dimension, NaN-filled, so a read past k or
// past row m of op(A), or past op(B)'s columns, shows as a NaN in C.
void expect_matches_oracle(Kind kind, std::size_t m, std::size_t n,
                           std::size_t k, bool accumulate, std::uint64_t seed,
                           std::span<const std::size_t> threads = {},
                           std::span<const std::size_t> pads = kTightLd) {
  Rng rng(seed);
  // Operand storage sized for either orientation of the transposed side.
  const std::vector<float> a = random_vec(rng, std::max<std::size_t>(1, m * k));
  const std::vector<float> b = random_vec(rng, std::max<std::size_t>(1, n * k));
  const std::vector<float> c0 = random_vec(rng, std::max<std::size_t>(1, m * n));
  const std::size_t lda = kind == Kind::kTN ? m : k;
  const std::size_t ldb = kind == Kind::kNT ? k : n;

  std::vector<float> c_ref = c0;
  run_gemm(kind, /*oracle_loop=*/true, m, n, k, a.data(), lda, b.data(), ldb,
           c_ref.data(), n, accumulate);
  for (const std::size_t pad : pads) {
    const std::vector<float> ap = padded(a, m * k / lda, lda, pad);
    const std::vector<float> bp = padded(b, n * k / ldb, ldb, pad);
    for (std::size_t t = 0; t < std::max<std::size_t>(1, threads.size());
         ++t) {
      if (!threads.empty()) common::set_thread_count(threads[t]);
      std::vector<float> c_tiled = c0;
      run_gemm(kind, /*oracle_loop=*/false, m, n, k, ap.data(), lda + pad,
               bp.data(), ldb + pad, c_tiled.data(), n, accumulate);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_tiled.data(),
                               c_ref.size() * sizeof(float)))
          << "kind=" << int(kind) << " m=" << m << " n=" << n << " k=" << k
          << " accumulate=" << accumulate << " pad=" << pad
          << " threads=" << common::thread_count();
    }
  }
}

// k values either side of one and two slab lengths.
constexpr std::size_t kSlabKs[] = {kGemmSlabK - 1, kGemmSlabK,
                                   kGemmSlabK + 1, 2 * kGemmSlabK + 3};

TEST(GemmBitwise, TiledMatchesReferenceAcrossShapes) {
  // Degenerate, odd, rectangular, and tile-boundary shapes for all three
  // orientations: multiples of the 8x8 micro-tile ± 1, so m gives one or
  // two whole 8-row panels read in place, a lone partial panel (m < 8)
  // and a partial panel after whole ones (9, 15, 17). At these widths the
  // slab-length ks still run as one slab.
  const std::size_t ms[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17};
  const std::size_t ns[] = {1, 7, 8, 9, 16, 31, 33};
  const std::size_t ks[] = {1,          2,          13,         64,
                            kSlabKs[0], kSlabKs[1], kSlabKs[2], kSlabKs[3]};
  std::uint64_t seed = 1;
  for (const auto kind : {Kind::kNN, Kind::kNT, Kind::kTN})
    for (const std::size_t m : ms)
      for (const std::size_t n : ns)
        for (const std::size_t k : ks) {
          ++seed;
          expect_matches_oracle(kind, m, n, k, seed % 2 == 0, seed);
        }
}

// The shapes the trainer actually runs: batch-sized m against wide n
// (the flagship forward gemm_nt(8, 1300, 768) takes the skinny-NT operand
// swap) and short k (the CNN weight gradients), at 1 and 4 threads; the
// larger shapes cross the row-panel fan-out threshold. A packed B over
// kGemmOneSlabFloats runs as several k slabs carried in C: n = 1300 at
// every slab-length k, n = 127 and 128 at k = 2 * kGemmSlabK + 3. Last,
// one shape on each side of the one-slab threshold: a packed B of exactly
// kGemmOneSlabFloats (n = 63 pads to 64 columns) runs as one slab, one
// more k step as five; the skinny NT product packs its 8-row side as B.
// Every shape runs with tight leading dimensions and with lda and ldb 3
// floats wider, NaN-padded: the strided operands the RNN passes (a
// timestep slice of [B, T, E] has lda = T * E > k), read in place.
TEST(GemmBitwise, TiledMatchesReferenceAtTrainingShapes) {
  struct ThreadGuard {
    ~ThreadGuard() { common::set_thread_count(0); }
  } threads_guard;
  const std::size_t ms[] = {1, 2, 3, 5, 6, 8};
  const std::size_t ns[] = {9, 127, 128, 1300};
  const std::size_t ks[] = {8,          9,          54,         768,
                            kSlabKs[0], kSlabKs[1], kSlabKs[2], kSlabKs[3]};
  const std::size_t threads[] = {1, 4};
  const std::size_t pads[] = {0, 3};
  std::uint64_t seed = 1000;
  for (const auto kind : {Kind::kNN, Kind::kNT, Kind::kTN})
    for (const std::size_t m : ms)
      for (const std::size_t n : ns)
        for (const std::size_t k : ks)
          for (const bool accumulate : {false, true})
            expect_matches_oracle(kind, m, n, k, accumulate, ++seed, threads,
                                  pads);
  for (const bool accumulate : {false, true}) {
    for (const std::size_t k :
         {kGemmOneSlabFloats / 64, kGemmOneSlabFloats / 64 + 1})
      for (const auto kind : {Kind::kNN, Kind::kNT, Kind::kTN})
        expect_matches_oracle(kind, 17, 63, k, accumulate, ++seed, threads,
                              pads);
    for (const std::size_t k :
         {kGemmOneSlabFloats / 8, kGemmOneSlabFloats / 8 + 1})
      expect_matches_oracle(Kind::kNT, 8, 9, k, accumulate, ++seed, threads,
                            pads);
  }
}

TEST(GemmBitwise, KZeroWritesOrPreservesC) {
  Rng rng(3);
  const std::vector<float> c0 = random_vec(rng, 12);
  for (const bool oracle_loop : {true, false}) {
    std::vector<float> c = c0;
    // accumulate: C + A*B with empty inner dim leaves C untouched.
    run_gemm(Kind::kNN, oracle_loop, 3, 4, 0, nullptr, 1, nullptr, 4,
             c.data(), 4, true);
    EXPECT_EQ(c, c0);
    // overwrite: the product is the zero matrix.
    run_gemm(Kind::kNN, oracle_loop, 3, 4, 0, nullptr, 1, nullptr, 4,
             c.data(), 4, false);
    for (const float v : c) EXPECT_EQ(v, 0.0f);
  }
}

TEST(GemmBitwise, ThreadCountInvariant) {
  // Large enough to cross the parallel threshold (m*n*k = 8M MACs).
  const std::size_t m = 256, n = 256, k = 128;
  Rng rng(5);
  const std::vector<float> a = random_vec(rng, m * k);
  const std::vector<float> b = random_vec(rng, k * n);
  std::vector<float> c1(m * n, 0.0f), c4(m * n, 0.0f);
  common::set_thread_count(1);
  gemm_nn(m, n, k, a.data(), k, b.data(), n, c1.data(), n, false);
  common::set_thread_count(4);
  gemm_nn(m, n, k, a.data(), k, b.data(), n, c4.data(), n, false);
  common::set_thread_count(0);  // restore automatic sizing
  ASSERT_EQ(0, std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)));
}

TEST(GemmHelpers, BiasBroadcastsAndSums) {
  std::vector<float> c = {0, 0, 0, 0, 10, 20};  // 2x3
  const std::vector<float> row_bias = {1, 2, 3};
  add_bias_rows(c.data(), 2, 3, 3, row_bias.data());
  EXPECT_EQ(c, (std::vector<float>{1, 2, 3, 1, 12, 23}));
  std::vector<float> cols(3, 100.0f);
  add_col_sums(c.data(), 2, 3, 3, cols.data());
  EXPECT_EQ(cols, (std::vector<float>{102, 114, 126}));
}

// ---------------------------------------------------------------- Conv2d

// One conv layer shape: batch, input and output channels, map size.
struct ConvShape {
  std::size_t batch, ic, oc, h, w;
};

// A small odd shape; every conv the models build at their client batch
// of 8: the paper CNN's two (make_small_cnn(16)) and the residual CNN's
// stem and block convs (make_color_cnn(16)); widths one lane past a full
// vector (9, 17) with an output-channel group of one lane and a second
// strip of rows; maps narrower than the kernel in one dimension or both,
// where every tap row is mostly padding, down to 1x1.
constexpr ConvShape kConvShapes[] = {
    {2, 2, 3, 5, 6},  {8, 1, 6, 16, 16}, {8, 6, 12, 8, 8},
    {8, 3, 8, 16, 16}, {8, 8, 8, 8, 8},   {2, 3, 5, 4, 9},
    {2, 2, 9, 10, 17}, {2, 2, 3, 1, 7},  {2, 2, 3, 3, 1},
    {2, 2, 3, 2, 2},  {2, 2, 3, 1, 1}};

// gemm_flops billed while `op` runs, summed over stages.
template <class F>
std::uint64_t billed_flops(F&& op) {
  obs::MetricsRegistry reg(false);
  {
    obs::ScopedMetrics scope(&reg);
    reg.begin_round(0);
    op();
    reg.end_round();
  }
  std::uint64_t flops = 0;
  for (const auto& stage : reg.totals().counters)
    flops += stage[std::size_t(obs::Counter::kGemmFlops)];
  return flops;
}

// Conv2d against the direct loops of oracle::ConvOracle, byte for byte:
// the forward, both backwards' parameter gradients and the input
// gradient. Each product bills gemm_flops as the per-sample GEMM it
// replaced did, 2 * OC * H*W * IC*9 per sample: the forward one product,
// backward two, backward_params_only one.
TEST(Conv2d, BitwiseMatchesDirectReferenceForwardBackward) {
  // The NaN that inf - inf yields at run time on this platform (volatile
  // keeps the compiler from folding it to another pattern): +inf and
  // -inf below can meet in a weight-gradient sum, and when two NaNs meet
  // IEEE-754 leaves open whose payload survives. With one NaN pattern in
  // play the comparison can stay byte for byte.
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  Rng rng(11);
  for (const ConvShape& s : kConvShapes) {
    const std::size_t batch = s.batch, ic = s.ic, oc = s.oc, h = s.h,
                      w = s.w, hw = h * w;
    SCOPED_TRACE(::testing::Message() << "batch=" << batch << " ic=" << ic
                                      << " oc=" << oc << " h=" << h
                                      << " w=" << w);
    Conv2d conv(ic, oc, rng);
    Tensor x({batch, ic, h, w});
    for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
    // The last sample holds a NaN, +inf and -inf.
    float* last = x.data() + (batch - 1) * ic * hw;
    last[0] = nan;
    last[ic * hw / 2] = inf;
    last[ic * hw - 1] = -inf;
    const std::uint64_t product = 2 * batch * oc * hw * ic * 9;
    Workspace ws;
    ws.begin_pass();
    Tensor y;
    EXPECT_EQ(billed_flops([&] { conv.forward(x, y, ws); }), product);
    ASSERT_EQ(y.shape(), (std::vector<std::size_t>{batch, oc, h, w}));

    auto params = conv.params();
    const std::vector<float> wt(params[0].value.begin(),
                                params[0].value.end());
    const std::vector<float> bias(params[1].value.begin(),
                                  params[1].value.end());
    const oracle::ConvOracle oracle{ic, oc, h, w, wt.data(), bias.data()};
    std::vector<float> y_ref(oc * hw);
    for (std::size_t b = 0; b < batch; ++b) {
      oracle.forward(x.data() + b * ic * hw, y_ref.data());
      ASSERT_EQ(0, std::memcmp(y_ref.data(), y.data() + b * oc * hw,
                               y_ref.size() * sizeof(float)))
          << "sample " << b;
    }

    Tensor gy({batch, oc, h, w});
    for (auto& v : gy.flat()) v = static_cast<float>(rng.normal());
    // Reused gradient buffers hold stale values; backward must write
    // every element of gW, gb and gx.
    const auto stale_params = [&] {
      for (const ParamView& p : conv.params())
        std::fill(p.grad.begin(), p.grad.end(), nan);
    };
    stale_params();
    Tensor gx({batch, ic, h, w});
    for (auto& v : gx.flat()) v = nan;
    EXPECT_EQ(billed_flops([&] { conv.backward(gy, gx, ws); }), 2 * product);

    std::vector<float> gw_ref(wt.size(), 0.0f), gb_ref(oc, 0.0f),
        gx_ref(batch * ic * hw);
    oracle.backward(x.data(), gy.data(), batch, gw_ref.data(), gb_ref.data(),
                    gx_ref.data());

    params = conv.params();
    ASSERT_EQ(0, std::memcmp(gw_ref.data(), params[0].grad.data(),
                             gw_ref.size() * sizeof(float)));
    ASSERT_EQ(0, std::memcmp(gb_ref.data(), params[1].grad.data(),
                             gb_ref.size() * sizeof(float)));
    ASSERT_EQ(gx.numel(), gx_ref.size());
    ASSERT_EQ(0, std::memcmp(gx_ref.data(), gx.data(),
                             gx_ref.size() * sizeof(float)));

    // The first layer's backward skips the input gradient; its
    // parameter gradients must be the same bytes.
    stale_params();
    EXPECT_EQ(billed_flops([&] { conv.backward_params_only(gy, ws); }),
              product);
    params = conv.params();
    ASSERT_EQ(0, std::memcmp(gw_ref.data(), params[0].grad.data(),
                             gw_ref.size() * sizeof(float)));
    ASSERT_EQ(0, std::memcmp(gb_ref.data(), params[1].grad.data(),
                             gb_ref.size() * sizeof(float)));
  }
}

// -------------------------------------------------------------- MaxPool2

// MaxPool2 against the branchy per-window scan (oracle::maxpool2), byte
// for byte: y, and the input gradient routed from a gy with -0.0
// entries (which must land as +0.0). Every window of every input takes
// one pattern per pass, and across the eight passes each window takes
// all eight: ReLU'd normals twice (about half exact zeros, so ties),
// signed zeros only, a NaN in each of the four slots, and infinities.
TEST(MaxPool, BitwiseMatchesBranchyReferenceForwardBackward) {
  struct Shape {
    std::size_t b, c, h, w;
  };
  // The paper CNN's two pools, and odd heights or widths, whose last row
  // or column no window reads: pooling must floor per plane.
  constexpr Shape kShapes[] = {{1, 1, 2, 2},  {3, 5, 4, 6}, {8, 6, 16, 16},
                               {8, 12, 8, 8}, {1, 2, 5, 4}, {2, 3, 7, 7},
                               {1, 1, 3, 3}};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(12);
  for (const Shape& s : kShapes) {
    const std::size_t planes = s.b * s.c, n_in = planes * s.h * s.w,
                      ow = s.w / 2, n_out = planes * (s.h / 2) * ow;
    for (std::size_t pass = 0; pass < 8; ++pass) {
      SCOPED_TRACE(::testing::Message()
                   << "shape " << s.b << "x" << s.c << "x" << s.h << "x"
                   << s.w << " pass " << pass);
      Tensor x({s.b, s.c, s.h, s.w});
      for (auto& v : x.flat())
        v = std::max(0.0f, static_cast<float>(rng.normal()));
      for (std::size_t win = 0; win < n_out; ++win) {
        // Flat indices of the window's (0,0), (0,1), (1,0), (1,1).
        const std::size_t plane = win / (n_out / planes),
                          oy = win % (n_out / planes) / ow, ox = win % ow;
        const std::size_t top = (plane * s.h + 2 * oy) * s.w + 2 * ox;
        const std::size_t slot[4] = {top, top + 1, top + s.w, top + s.w + 1};
        const std::size_t pattern = (win + pass) % 8;
        if (pattern == 2) {
          for (const std::size_t i : slot)
            x[i] = rng.uniform(0.0, 1.0) < 0.5 ? 0.0f : -0.0f;
        } else if (pattern >= 3 && pattern <= 6) {
          x[slot[pattern - 3]] = win % 2 == 0 ? nan : -nan;
        } else if (pattern == 7) {
          for (const std::size_t i : slot) {
            const double u = rng.uniform(0.0, 1.0);
            if (u < 0.4) x[i] = u < 0.2 ? inf : -inf;
          }
        }
      }
      std::vector<float> y_ref(n_out), gx_ref(n_in);
      std::vector<std::size_t> argmax(n_out);
      oracle::maxpool2(x.data(), planes, s.h, s.w, y_ref.data(),
                       argmax.data());

      MaxPool2 pool;
      Workspace ws;
      Tensor y({s.b, s.c, s.h / 2, s.w / 2});
      for (auto& v : y.flat()) v = nan;  // stale; forward writes all of y
      pool.forward(x, y, ws);
      ASSERT_EQ(y.shape(),
                (std::vector<std::size_t>{s.b, s.c, s.h / 2, s.w / 2}));
      ASSERT_EQ(0, std::memcmp(y_ref.data(), y.data(),
                               n_out * sizeof(float)));

      Tensor gy(y.shape());
      for (std::size_t i = 0; i < n_out; ++i)
        gy[i] = i % 3 == 0 ? -0.0f : static_cast<float>(rng.normal());
      oracle::maxpool2_backward(gy.data(), argmax.data(), n_out,
                                gx_ref.data(), n_in);
      Tensor gx;
      pool.backward(gy, gx, ws);
      ASSERT_EQ(gx.numel(), n_in);
      ASSERT_EQ(0, std::memcmp(gx_ref.data(), gx.data(),
                               n_in * sizeof(float)));
    }
  }
}

// ------------------------------------------------------------- Workspace

TEST(Workspace, IdenticalRoundsIdenticalGradientsNoGrowth) {
  Model m = make_small_cnn(8, 4, 21);
  Rng rng(22);
  Tensor x({4, 1, 8, 8});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {0, 1, 2, 3};

  auto round = [&]() {
    const Tensor& logits = m.forward(x);
    const LossResult r = softmax_cross_entropy(logits, labels);
    m.backward(r.dlogits);
    return m.gradients();
  };

  const std::vector<float> g1 = round();
  const std::size_t slots = m.workspace().scratch_slots();
  const std::size_t cap = m.workspace().capacity_floats();
  EXPECT_GT(slots, 0u);
  EXPECT_GT(cap, 0u);
  for (int i = 0; i < 3; ++i) {
    const std::vector<float> gi = round();
    EXPECT_EQ(g1, gi) << "round " << i + 2;
    EXPECT_EQ(m.workspace().scratch_slots(), slots) << "round " << i + 2;
    EXPECT_EQ(m.workspace().capacity_floats(), cap) << "round " << i + 2;
  }

  // An interleaved larger eval batch may grow capacity once, but the
  // training round must still produce the same gradients afterwards
  // (stale workspace contents don't leak into the next pass).
  Tensor eval_x({16, 1, 8, 8});
  for (auto& v : eval_x.flat()) v = static_cast<float>(rng.normal());
  m.forward(eval_x);
  const std::size_t cap_after_eval = m.workspace().capacity_floats();
  EXPECT_EQ(round(), g1);
  EXPECT_EQ(m.workspace().capacity_floats(), cap_after_eval);
}

// --------------------------------------------------------------- Tensor

TEST(Tensor, MoveReshapedIsMetadataOnly) {
  Tensor t({4, 3});
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = float(i);
  const float* buf = t.data();
  const Tensor r = std::move(t).reshaped({3, 4});
  EXPECT_EQ(r.data(), buf);  // buffer moved, not copied
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_FLOAT_EQ(r[11], 11.0f);
  EXPECT_EQ(t.numel(), 0u);  // NOLINT(bugprone-use-after-move): asserting move
}

TEST(Tensor, CopyReshapedStillCopies) {
  Tensor t({2, 2});
  t[3] = 9.0f;
  const Tensor r = t.reshaped({4});
  EXPECT_NE(r.data(), t.data());
  EXPECT_FLOAT_EQ(r[3], 9.0f);
  EXPECT_EQ(t.numel(), 4u);
}

TEST(Tensor, AssignFromReusesCapacity) {
  Tensor big({100});
  const std::size_t cap = big.capacity();
  Tensor small({5});
  for (std::size_t i = 0; i < 5; ++i) small[i] = float(i);
  big.assign_from(small);
  EXPECT_EQ(big.shape(), small.shape());
  EXPECT_GE(big.capacity(), cap);  // shrink never releases storage
  EXPECT_FLOAT_EQ(big[4], 4.0f);
}

TEST(Tensor, ResizeIsNoOpOnSameShapeAndKeepsCapacity) {
  Tensor t({8, 8});
  const float* buf = t.data();
  t.resize({8, 8});
  EXPECT_EQ(t.data(), buf);
  t.resize({2, 2});
  EXPECT_EQ(t.numel(), 4u);
  EXPECT_GE(t.capacity(), 64u);
  t.resize({8, 8});
  EXPECT_EQ(t.numel(), 64u);
}

}  // namespace
}  // namespace signguard::nn
