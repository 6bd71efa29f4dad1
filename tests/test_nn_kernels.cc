// GEMM / im2col execution-path tests. The tiled GEMM's determinism
// contract is bitwise: per output element, one float accumulator and a
// strictly ascending k loop, regardless of tile boundaries or thread
// count. These tests pin that contract — against the plain-loop oracle
// (tests/oracles.h) over awkward shapes, against a direct-convolution
// oracle for the im2col path, and against workspace growth across
// identical rounds.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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
#include "oracles.h"

namespace signguard::nn {
namespace {

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
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

// The library kernel runs once per pool size in `threads` (once on the
// current pool when empty) and must match the oracle byte for byte each
// time.
void expect_matches_oracle(Kind kind, std::size_t m, std::size_t n,
                           std::size_t k, bool accumulate, std::uint64_t seed,
                           std::span<const std::size_t> threads = {}) {
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
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads.size()); ++t) {
    if (!threads.empty()) common::set_thread_count(threads[t]);
    std::vector<float> c_tiled = c0;
    run_gemm(kind, /*oracle_loop=*/false, m, n, k, a.data(), lda, b.data(),
             ldb, c_tiled.data(), n, accumulate);
    ASSERT_EQ(0, std::memcmp(c_ref.data(), c_tiled.data(),
                             c_ref.size() * sizeof(float)))
        << "kind=" << int(kind) << " m=" << m << " n=" << n << " k=" << k
        << " accumulate=" << accumulate
        << " threads=" << common::thread_count();
  }
}

TEST(GemmBitwise, TiledMatchesReferenceAcrossShapes) {
  // Degenerate, odd, rectangular, and tile-boundary (multiples of the
  // 4x8 micro-tile ± 1) shapes for all three orientations.
  const std::size_t ms[] = {1, 3, 4, 5, 8, 9, 17};
  const std::size_t ns[] = {1, 7, 8, 9, 16, 31, 33};
  const std::size_t ks[] = {1, 2, 13, 64};
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
// larger shapes cross the row-panel fan-out threshold.
TEST(GemmBitwise, TiledMatchesReferenceAtTrainingShapes) {
  struct ThreadGuard {
    ~ThreadGuard() { common::set_thread_count(0); }
  } threads_guard;
  const std::size_t ms[] = {1, 2, 3, 5, 6, 8};
  const std::size_t ns[] = {9, 127, 128, 1300};
  const std::size_t ks[] = {8, 9, 54, 768};
  const std::size_t threads[] = {1, 4};
  std::uint64_t seed = 1000;
  for (const auto kind : {Kind::kNN, Kind::kNT, Kind::kTN})
    for (const std::size_t m : ms)
      for (const std::size_t n : ns)
        for (const std::size_t k : ks)
          for (const bool accumulate : {false, true})
            expect_matches_oracle(kind, m, n, k, accumulate, ++seed,
                                  threads);
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
  std::vector<float> c = {0, 0, 0, 0, 0, 0};  // 2x3
  const std::vector<float> row_bias = {1, 2, 3};
  add_bias_rows(c.data(), 2, 3, 3, row_bias.data());
  EXPECT_EQ(c, (std::vector<float>{1, 2, 3, 1, 2, 3}));
  const std::vector<float> col_bias = {10, 20};
  add_bias_cols(c.data(), 2, 3, 3, col_bias.data());
  EXPECT_EQ(c, (std::vector<float>{11, 12, 13, 21, 22, 23}));
  std::vector<float> cols(3, 0.0f), rows(2, 100.0f);
  add_col_sums(c.data(), 2, 3, 3, cols.data());
  EXPECT_EQ(cols, (std::vector<float>{32, 34, 36}));
  add_row_sums(c.data(), 2, 3, 3, rows.data());
  EXPECT_EQ(rows, (std::vector<float>{136, 166}));
}

// ---------------------------------------------------------------- Conv2d

// Direct 3x3 same-padding convolution oracle that mirrors the im2col
// semantics exactly: per output element one float accumulator over
// k = (ic*3 + ky+1)*3 + (kx+1) ascending, with out-of-range taps
// contributing literal zeros — so layer output must match bitwise.
struct ConvOracle {
  std::size_t ic, oc, h, w;
  const std::vector<float>& wt;  // [OC][IC*9]
  const std::vector<float>& bias;

  float col(const float* x, std::size_t k, std::size_t p) const {
    const std::size_t c = k / 9;
    const std::ptrdiff_t ky = std::ptrdiff_t((k % 9) / 3) - 1;
    const std::ptrdiff_t kx = std::ptrdiff_t(k % 3) - 1;
    const std::ptrdiff_t yy = std::ptrdiff_t(p / w) + ky;
    const std::ptrdiff_t xx = std::ptrdiff_t(p % w) + kx;
    if (yy < 0 || yy >= std::ptrdiff_t(h) || xx < 0 ||
        xx >= std::ptrdiff_t(w))
      return 0.0f;
    return x[(c * h + std::size_t(yy)) * w + std::size_t(xx)];
  }

  // y[oc][p] for one sample.
  void forward(const float* x, float* y) const {
    const std::size_t kk = ic * 9, hw = h * w;
    for (std::size_t o = 0; o < oc; ++o)
      for (std::size_t p = 0; p < hw; ++p) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < kk; ++k)
          acc += wt[o * kk + k] * col(x, k, p);
        y[o * hw + p] = acc + bias[o];
      }
  }

  // Accumulation-order-faithful backward for one batch: sample-major like
  // the layer (b outer), gemm-shaped loops inside.
  void backward(const std::vector<const float*>& xs,
                const std::vector<const float*>& gys, std::vector<float>& gw,
                std::vector<float>& gb, std::vector<float>& gx) const {
    const std::size_t kk = ic * 9, hw = h * w;
    std::vector<float> dcols(kk * hw);
    for (std::size_t b = 0; b < xs.size(); ++b) {
      const float* gy = gys[b];
      for (std::size_t o = 0; o < oc; ++o) {
        float acc = gb[o];
        for (std::size_t p = 0; p < hw; ++p) acc += gy[o * hw + p];
        gb[o] = acc;
      }
      for (std::size_t o = 0; o < oc; ++o)
        for (std::size_t k = 0; k < kk; ++k) {
          float acc = gw[o * kk + k];
          for (std::size_t p = 0; p < hw; ++p)
            acc += gy[o * hw + p] * col(xs[b], k, p);
          gw[o * kk + k] = acc;
        }
      for (std::size_t k = 0; k < kk; ++k)
        for (std::size_t p = 0; p < hw; ++p) {
          float acc = 0.0f;
          for (std::size_t o = 0; o < oc; ++o)
            acc += wt[o * kk + k] * gy[o * hw + p];
          dcols[k * hw + p] = acc;
        }
      // col2im scatter in the layer's k-then-row-major order.
      float* gxb = gx.data() + b * ic * hw;
      for (std::size_t k = 0; k < kk; ++k) {
        const std::size_t c = k / 9;
        const std::ptrdiff_t ky = std::ptrdiff_t((k % 9) / 3) - 1;
        const std::ptrdiff_t kx = std::ptrdiff_t(k % 3) - 1;
        for (std::size_t p = 0; p < hw; ++p) {
          const std::ptrdiff_t yy = std::ptrdiff_t(p / w) + ky;
          const std::ptrdiff_t xx = std::ptrdiff_t(p % w) + kx;
          if (yy < 0 || yy >= std::ptrdiff_t(h) || xx < 0 ||
              xx >= std::ptrdiff_t(w))
            continue;
          gxb[(c * h + std::size_t(yy)) * w + std::size_t(xx)] +=
              dcols[k * hw + p];
        }
      }
    }
  }
};

TEST(ConvIm2col, BitwiseMatchesDirectReferenceForwardBackward) {
  const std::size_t batch = 2, ic = 2, oc = 3, h = 5, w = 6, hw = h * w;
  Rng rng(11);
  Conv2d conv(ic, oc, rng);
  Tensor x({batch, ic, h, w});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  Workspace ws;
  ws.begin_pass();
  Tensor y;
  conv.forward(x, y, ws);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{batch, oc, h, w}));

  auto params = conv.params();
  const std::vector<float> wt(params[0].value.begin(), params[0].value.end());
  const std::vector<float> bias(params[1].value.begin(),
                                params[1].value.end());
  const ConvOracle oracle{ic, oc, h, w, wt, bias};
  std::vector<float> y_ref(oc * hw);
  for (std::size_t b = 0; b < batch; ++b) {
    oracle.forward(x.data() + b * ic * hw, y_ref.data());
    ASSERT_EQ(0, std::memcmp(y_ref.data(), y.data() + b * oc * hw,
                             y_ref.size() * sizeof(float)))
        << "sample " << b;
  }

  Tensor gy({batch, oc, h, w});
  for (auto& v : gy.flat()) v = static_cast<float>(rng.normal());
  conv.zero_grad();
  Tensor gx;
  conv.backward(gy, gx, ws);

  std::vector<float> gw_ref(wt.size(), 0.0f), gb_ref(oc, 0.0f),
      gx_ref(batch * ic * hw, 0.0f);
  std::vector<const float*> xs, gys;
  for (std::size_t b = 0; b < batch; ++b) {
    xs.push_back(x.data() + b * ic * hw);
    gys.push_back(gy.data() + b * oc * hw);
  }
  oracle.backward(xs, gys, gw_ref, gb_ref, gx_ref);

  params = conv.params();
  ASSERT_EQ(0, std::memcmp(gw_ref.data(), params[0].grad.data(),
                           gw_ref.size() * sizeof(float)));
  ASSERT_EQ(0, std::memcmp(gb_ref.data(), params[1].grad.data(),
                           gb_ref.size() * sizeof(float)));
  ASSERT_EQ(gx.numel(), gx_ref.size());
  ASSERT_EQ(0, std::memcmp(gx_ref.data(), gx.data(),
                           gx_ref.size() * sizeof(float)));
}

// ------------------------------------------------------------- Workspace

TEST(Workspace, IdenticalRoundsIdenticalGradientsNoGrowth) {
  Model m = make_small_cnn(8, 4, 21);
  Rng rng(22);
  Tensor x({4, 1, 8, 8});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {0, 1, 2, 3};

  auto round = [&]() {
    m.zero_gradients();
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
