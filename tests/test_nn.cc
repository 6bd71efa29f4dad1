// Neural-network library tests. The load-bearing ones are the
// finite-difference gradient checks: every layer's backward pass is
// verified against a numeric derivative of the loss, both for input
// gradients (via the model chain) and parameter gradients.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace signguard::nn {
namespace {

// Numeric vs analytic parameter-gradient check for an arbitrary model.
// Runs forward+loss+backward once for the analytic gradient, then
// perturbs a sample of parameters to estimate the numeric gradient.
void check_parameter_gradients(Model& model, const Tensor& input,
                               const std::vector<int>& labels,
                               double tol = 2e-2) {
  const Tensor logits = model.forward(input);
  const LossResult base = softmax_cross_entropy(logits, labels);
  model.backward(base.dlogits);
  const std::vector<float> analytic = model.gradients();
  std::vector<float> params = model.parameters();

  // Check a deterministic spread of coordinates (every k-th), capped.
  const std::size_t total = params.size();
  const std::size_t checks = std::min<std::size_t>(total, 60);
  const std::size_t stride = std::max<std::size_t>(1, total / checks);
  const double eps = 1e-3;
  for (std::size_t j = 0; j < total; j += stride) {
    const float saved = params[j];
    params[j] = static_cast<float>(saved + eps);
    model.set_parameters(params);
    const double lp =
        softmax_cross_entropy(model.forward(input), labels).loss;
    params[j] = static_cast<float>(saved - eps);
    model.set_parameters(params);
    const double lm =
        softmax_cross_entropy(model.forward(input), labels).loss;
    params[j] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[j], numeric,
                tol * std::max(1.0, std::abs(numeric)))
        << "parameter index " << j;
  }
  model.set_parameters(params);
}

TEST(Tensor, ShapeAndReshape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.ndim(), 2u);
  t[5] = 7.0f;
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_FLOAT_EQ(r[5], 7.0f);
}

TEST(Tensor, ZerosInitialized) {
  const Tensor t = Tensor::zeros({4, 4});
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Loss, SoftmaxCrossEntropyKnownValues) {
  // Two classes, logits (0, 0): loss = ln 2, gradient (±0.5)/B.
  Tensor logits({1, 2});
  const LossResult r = softmax_cross_entropy(logits, std::vector<int>{0});
  EXPECT_NEAR(r.loss, std::log(2.0), 1e-6);
  EXPECT_NEAR(r.dlogits[0], -0.5, 1e-6);
  EXPECT_NEAR(r.dlogits[1], 0.5, 1e-6);
}

TEST(Loss, CountsCorrectPredictions) {
  Tensor logits({2, 3});
  logits[0] = 5.0f;              // sample 0 predicts class 0
  logits[3 + 2] = 4.0f;          // sample 1 predicts class 2
  const LossResult r =
      softmax_cross_entropy(logits, std::vector<int>{0, 1});
  EXPECT_EQ(r.correct, 1u);
}

TEST(Loss, NumericallyStableWithLargeLogits) {
  Tensor logits({1, 2});
  logits[0] = 1000.0f;
  logits[1] = -1000.0f;
  const LossResult r = softmax_cross_entropy(logits, std::vector<int>{0});
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.loss, 0.0, 1e-6);
}

TEST(GradCheck, LinearLayer) {
  Rng rng(1);
  Model m;
  m.add(std::make_unique<Linear>(5, 4, rng));
  Tensor x({3, 5});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  check_parameter_gradients(m, x, {0, 1, 3});
}

TEST(GradCheck, MlpWithReLU) {
  Rng rng(2);
  Model m;
  m.add(std::make_unique<Linear>(6, 8, rng, std::sqrt(2.0)))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(8, 3, rng));
  Tensor x({4, 6});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  check_parameter_gradients(m, x, {0, 1, 2, 0});
}

TEST(GradCheck, TanhStack) {
  Rng rng(3);
  Model m;
  m.add(std::make_unique<Linear>(4, 6, rng))
      .add(std::make_unique<Tanh>())
      .add(std::make_unique<Linear>(6, 2, rng));
  Tensor x({2, 4});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  check_parameter_gradients(m, x, {1, 0});
}

TEST(GradCheck, Conv2dLayer) {
  Rng rng(4);
  Model m;
  m.add(std::make_unique<Conv2d>(2, 3, rng))
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Linear>(3 * 6 * 6, 2, rng));
  Tensor x({2, 2, 6, 6});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  check_parameter_gradients(m, x, {0, 1});
}

TEST(GradCheck, ConvPoolStack) {
  Rng rng(5);
  Model m;
  m.add(std::make_unique<Conv2d>(1, 4, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<MaxPool2>())
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Linear>(4 * 4 * 4, 3, rng));
  Tensor x({2, 1, 8, 8});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  check_parameter_gradients(m, x, {2, 1});
}

TEST(GradCheck, ResidualConvBlock) {
  Rng rng(6);
  Model m;
  m.add(std::make_unique<ResidualConvBlock>(2, rng))
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Linear>(2 * 6 * 6, 2, rng));
  Tensor x({2, 2, 6, 6});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  check_parameter_gradients(m, x, {0, 1});
}

TEST(GradCheck, EmbeddingMeanPool) {
  Rng rng(7);
  Model m;
  m.add(std::make_unique<Embedding>(20, 5, rng))
      .add(std::make_unique<MeanPoolTime>())
      .add(std::make_unique<Linear>(5, 3, rng));
  Tensor ids({2, 4});
  const int toks[] = {1, 5, 7, 19, 0, 2, 2, 11};
  for (std::size_t i = 0; i < ids.numel(); ++i)
    ids[i] = static_cast<float>(toks[i]);
  check_parameter_gradients(m, ids, {0, 2});
}

TEST(GradCheck, RnnMeanPoolBptt) {
  Rng rng(12);
  Model m;
  m.add(std::make_unique<Embedding>(15, 4, rng))
      .add(std::make_unique<RnnTanh>(4, 6, rng))
      .add(std::make_unique<MeanPoolTime>())
      .add(std::make_unique<Linear>(6, 3, rng));
  Tensor ids({2, 5});
  const int toks[] = {1, 3, 5, 7, 9, 0, 2, 4, 6, 8};
  for (std::size_t i = 0; i < ids.numel(); ++i)
    ids[i] = static_cast<float>(toks[i]);
  check_parameter_gradients(m, ids, {0, 2});
}

TEST(MaxPool, ForwardSelectsMaxAndRoutesGradient) {
  MaxPool2 pool;
  Workspace ws;
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = -1.0f;
  x[3] = 2.0f;
  Tensor y;
  pool.forward(x, y, ws);
  EXPECT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor dy({1, 1, 1, 1});
  dy[0] = 3.0f;
  Tensor dx;
  pool.backward(dy, dx, ws);
  EXPECT_FLOAT_EQ(dx[1], 3.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(Model, ParameterRoundTrip) {
  Rng rng(9);
  Model m;
  m.add(std::make_unique<Linear>(3, 4, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(4, 2, rng));
  const std::vector<float> p = m.parameters();
  EXPECT_EQ(p.size(), m.parameter_count());
  EXPECT_EQ(p.size(), 3u * 4u + 4u + 4u * 2u + 2u);
  std::vector<float> q(p.size());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = float(i);
  m.set_parameters(q);
  EXPECT_EQ(m.parameters(), q);
}

// gradients_into(out, wd) replaces the old copy-then-decay pair with one
// pass: out = float(double(g) + wd * double(w)), and a plain copy at
// wd == 0, where the decay formula would turn a -0.0 gradient into +0.0.
TEST(Model, GradientsIntoFusesWeightDecayBitwise) {
  Rng rng(11);
  Model m;
  m.add(std::make_unique<Linear>(5, 7, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(7, 3, rng));
  Tensor x({2, 5});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = float(i % 5) - 2.0f;
  const Tensor logits = m.forward(x);
  m.backward(softmax_cross_entropy(logits, std::vector<int>{0, 2}).dlogits);
  // A -0.0 gradient on a positive weight: 0 * w is +0.0 there, so the
  // decay formula at wd == 0 would flip the sign.
  m.layer(0).params()[0].grad[0] = -0.0f;
  m.layer(0).params()[0].value[0] = 0.5f;
  const std::vector<float> grads = m.gradients();
  const std::vector<float> params = m.parameters();
  for (const double wd : {0.0, 5e-4, 0.1}) {
    std::vector<float> expected = grads;  // the old copy pass ...
    if (wd != 0.0)                        // ... and the old decay pass
      for (std::size_t i = 0; i < expected.size(); ++i)
        expected[i] = static_cast<float>(double(expected[i]) +
                                         wd * double(params[i]));
    std::vector<float> out(m.parameter_count(), 1.0f);
    m.gradients_into(out, wd);
    ASSERT_EQ(0, std::memcmp(out.data(), expected.data(),
                             out.size() * sizeof(float)))
        << "wd=" << wd;
    if (wd == 0.0) EXPECT_TRUE(std::signbit(out[0]));
  }
}

// Backward writes every element of every parameter gradient, in every
// model factory: gradient blobs prefilled with NaN give a fresh model's
// bytes, and a step on another batch leaves nothing behind for the next
// one (a worker model is shared by many clients).
TEST(Model, BackwardWritesEveryParameterGradient) {
  struct Factory {
    const char* name;
    Model (*make)();
    std::vector<std::size_t> input;  // a batch of 3
    int vocab;                       // token ids below it; 0: dense input
  };
  const Factory factories[] = {
      {"mlp", [] { return make_mlp(16, 8, 4, 31); }, {3, 16}, 0},
      {"small_cnn", [] { return make_small_cnn(8, 4, 32); }, {3, 1, 8, 8}, 0},
      {"color_cnn", [] { return make_color_cnn(8, 4, 33); }, {3, 3, 8, 8}, 0},
      {"text_rnn", [] { return make_text_rnn(50, 8, 12, 4, 34); }, {3, 6},
       50},
      {"embed_bag_text", [] { return make_embed_bag_text(50, 8, 4, 35); },
       {3, 6}, 50}};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(36);
  for (const Factory& f : factories) {
    SCOPED_TRACE(f.name);
    Tensor a(f.input), b(f.input);
    for (Tensor* t : {&a, &b})
      for (auto& v : t->flat())
        v = f.vocab > 0 ? float(rng.randint(0, f.vocab - 1))
                        : float(rng.normal());
    const auto step = [](Model& m, const Tensor& x,
                         const std::vector<int>& labels) {
      m.backward(softmax_cross_entropy(m.forward(x), labels).dlogits);
      return m.gradients();
    };
    Model fresh = f.make();
    const std::vector<float> expected = step(fresh, a, {0, 1, 3});

    Model m = f.make();
    for (std::size_t i = 0; i < m.num_layers(); ++i)
      for (const ParamView& p : m.layer(i).params())
        std::fill(p.grad.begin(), p.grad.end(), nan);
    const std::vector<float> first = step(m, a, {0, 1, 3});
    ASSERT_EQ(first.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(first.data(), expected.data(),
                             first.size() * sizeof(float)));
    const std::vector<float> other = step(m, b, {2, 2, 1});
    EXPECT_NE(0, std::memcmp(other.data(), first.data(),
                             first.size() * sizeof(float)));
    const std::vector<float> again = step(m, a, {0, 1, 3});
    EXPECT_EQ(0, std::memcmp(again.data(), first.data(),
                             first.size() * sizeof(float)));
  }
}

TEST(Optimizer, PlainSgdStep) {
  SgdMomentum opt(0.1, 0.0);
  std::vector<float> params = {1.0f, 2.0f};
  const std::vector<float> grad = {1.0f, -1.0f};
  opt.step(params, grad);
  EXPECT_NEAR(params[0], 0.9f, 1e-6);
  EXPECT_NEAR(params[1], 2.1f, 1e-6);
}

TEST(Optimizer, MomentumAccumulates) {
  SgdMomentum opt(1.0, 0.5);
  std::vector<float> params = {0.0f};
  const std::vector<float> grad = {1.0f};
  opt.step(params, grad);  // v=1, p=-1
  EXPECT_NEAR(params[0], -1.0f, 1e-6);
  opt.step(params, grad);  // v=1.5, p=-2.5
  EXPECT_NEAR(params[0], -2.5f, 1e-6);
}

TEST(ModelFactories, ShapesAndDeterminism) {
  Model mlp = make_mlp(16, 8, 4, 42);
  Model mlp2 = make_mlp(16, 8, 4, 42);
  EXPECT_EQ(mlp.parameters(), mlp2.parameters());

  Model cnn = make_small_cnn(16, 10, 1);
  Tensor img({2, 1, 16, 16});
  EXPECT_EQ(cnn.forward(img).shape(),
            (std::vector<std::size_t>{2, 10}));

  Model color = make_color_cnn(16, 10, 1);
  Tensor cimg({2, 3, 16, 16});
  EXPECT_EQ(color.forward(cimg).shape(),
            (std::vector<std::size_t>{2, 10}));

  Model rnn = make_text_rnn(50, 8, 12, 4, 1);
  Tensor ids({3, 6});
  EXPECT_EQ(rnn.forward(ids).shape(), (std::vector<std::size_t>{3, 4}));

  Model bag = make_embed_bag_text(50, 8, 4, 1);
  EXPECT_EQ(bag.forward(ids).shape(), (std::vector<std::size_t>{3, 4}));
}

TEST(Training, SingleModelOverfitsTinyProblem) {
  // Sanity: 40 steps of full-batch SGD separate two Gaussian blobs.
  Rng rng(11);
  Model m = make_mlp(2, 8, 2, 13);
  Tensor x({20, 2});
  std::vector<int> y(20);
  for (int i = 0; i < 20; ++i) {
    const int cls = i % 2;
    y[std::size_t(i)] = cls;
    x[std::size_t(i) * 2] =
        static_cast<float>(rng.normal(cls == 0 ? -2.0 : 2.0, 0.3));
    x[std::size_t(i) * 2 + 1] =
        static_cast<float>(rng.normal(cls == 0 ? 1.0 : -1.0, 0.3));
  }
  SgdMomentum opt(0.3, 0.9);
  std::vector<float> params = m.parameters();
  double last_loss = 0.0;
  for (int step = 0; step < 40; ++step) {
    m.set_parameters(params);
    const LossResult r = softmax_cross_entropy(m.forward(x), y);
    m.backward(r.dlogits);
    opt.step(params, m.gradients());
    last_loss = r.loss;
  }
  EXPECT_LT(last_loss, 0.1);
}

}  // namespace
}  // namespace signguard::nn
