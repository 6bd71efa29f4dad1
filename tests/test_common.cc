// Unit tests for the common substrate: RNG, hashing, vector ops, order
// statistics, gradient statistics and the table printer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <string_view>

#include "common/gradient_stats.h"
#include "common/hash.h"
#include "common/quantiles.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/vecops.h"
#include "oracles.h"

namespace signguard {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // The child stream must differ from the parent's continuation.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i)
    if (a.uniform() != child.uniform()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, RandintInclusiveBounds) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.randint(0, 5);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 0);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(1.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(4);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  auto sorted = s;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  for (const auto v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWithoutReplacementClampsK) {
  Rng rng(5);
  const auto s = rng.sample_without_replacement(5, 50);
  EXPECT_EQ(s.size(), 5u);
}

// Published XXH64 seed-0 vectors. The lengths reach every path: empty,
// the byte tail alone, and a 32-byte stripe followed by the 8-byte,
// 4-byte and byte tails.
TEST(Hash, Xxh64KnownAnswers) {
  const struct {
    std::string_view input;
    std::uint64_t expected;
  } cases[] = {
      {"", 0xEF46DB3751D8E999ULL},
      {"a", 0xD24EC4F1A98C6E5BULL},
      {"abc", 0x44BC2CF5AD770999ULL},
      {"Nobody inspects the spammish repetition", 0xFBCEA83C8A378BF1ULL},
      {"The quick brown fox jumps over the lazy dog", 0x0B242D361FDA71BCULL},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(common::xxh64(c.input.data(), c.input.size()), c.expected)
        << '"' << c.input << '"';
    // Loads are unaligned-safe: the same bytes at offset 1 hash equal.
    const std::string shifted = " " + std::string(c.input);
    EXPECT_EQ(common::xxh64(shifted.data() + 1, c.input.size()), c.expected)
        << '"' << c.input << "\" at offset 1";
  }
}

TEST(VecOps, DotAndNorm) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {-1.0f, 0.5f, 2.0f};
  EXPECT_DOUBLE_EQ(vec::dot(a, b), -1.0 + 1.0 + 6.0);
  EXPECT_DOUBLE_EQ(vec::norm(a), std::sqrt(14.0));
}

TEST(VecOps, DistAndCosine) {
  const std::vector<float> a = {1.0f, 0.0f};
  const std::vector<float> b = {0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(vec::dist2(a, b), 2.0);
  EXPECT_NEAR(vec::cosine(a, b), 0.0, 1e-12);
  EXPECT_NEAR(vec::cosine(a, a), 1.0, 1e-12);
  const std::vector<float> zero = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(vec::cosine(a, zero), 0.0);
}

TEST(VecOps, AxpyScaleSubAdd) {
  std::vector<float> y = {1.0f, 1.0f};
  const std::vector<float> x = {2.0f, -1.0f};
  vec::axpy(0.5, x, y);
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  vec::scale(y, 2.0);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  const auto s = vec::sub(y, x);
  EXPECT_FLOAT_EQ(s[0], 2.0f);
  const auto a = vec::add(s, x);
  EXPECT_FLOAT_EQ(a[0], 4.0f);
}

TEST(VecOps, MeanOfVectors) {
  const auto vs = common::GradientMatrix::from_vectors(
      std::vector<std::vector<float>>{{1.0f, 2.0f}, {3.0f, 4.0f}});
  const auto m = vec::mean_of(vs);
  EXPECT_FLOAT_EQ(m[0], 2.0f);
  EXPECT_FLOAT_EQ(m[1], 3.0f);
  const std::vector<std::size_t> idx = {1};
  const auto ms = vec::mean_of_subset(vs, idx);
  EXPECT_FLOAT_EQ(ms[0], 3.0f);
}

TEST(VecOps, CoordinateMoments) {
  const auto vs = common::GradientMatrix::from_vectors(
      std::vector<std::vector<float>>{{0.0f, 1.0f}, {2.0f, 1.0f}});
  const auto m = vec::coordinate_moments(vs);
  EXPECT_FLOAT_EQ(m.mean[0], 1.0f);
  EXPECT_FLOAT_EQ(m.mean[1], 1.0f);
  EXPECT_FLOAT_EQ(m.stddev[0], 1.0f);
  EXPECT_FLOAT_EQ(m.stddev[1], 0.0f);
}

TEST(VecOps, ClipNorm) {
  std::vector<float> v = {3.0f, 4.0f};  // norm 5
  vec::clip_norm(v, 2.5);
  EXPECT_NEAR(vec::norm(v), 2.5, 1e-6);
  std::vector<float> small = {0.3f, 0.4f};
  vec::clip_norm(small, 2.5);  // already within bound: untouched
  EXPECT_FLOAT_EQ(small[0], 0.3f);
}

TEST(VecOps, Sign) {
  const std::vector<float> v = {-2.0f, 0.0f, 5.0f};
  const auto s = vec::sign(v);
  EXPECT_FLOAT_EQ(s[0], -1.0f);
  EXPECT_FLOAT_EQ(s[1], 0.0f);
  EXPECT_FLOAT_EQ(s[2], 1.0f);
}

TEST(Quantiles, MedianOddEven) {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::median(odd), 3.0);
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
  const std::vector<float> single = {7.0f};
  EXPECT_DOUBLE_EQ(stats::median(single), 7.0);
}

TEST(Quantiles, QuantileInterpolation) {
  const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.25), 1.0);
}

TEST(Quantiles, MeanAndStddev) {
  const std::vector<double> xs = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), 1.0);
}

TEST(SignStatistics, FullVector) {
  const std::vector<float> g = {1.0f, -1.0f, 0.0f, 2.0f};
  const SignStats s = sign_statistics(g);
  EXPECT_DOUBLE_EQ(s.pos, 0.5);
  EXPECT_DOUBLE_EQ(s.neg, 0.25);
  EXPECT_DOUBLE_EQ(s.zero, 0.25);
  EXPECT_DOUBLE_EQ(s.pos + s.neg + s.zero, 1.0);
}

TEST(SignStatistics, CoordinateSubset) {
  const std::vector<float> g = {1.0f, -1.0f, 0.0f, 2.0f};
  const std::vector<std::size_t> coords = {0, 3};
  const SignStats s = sign_statistics(g, coords);
  EXPECT_DOUBLE_EQ(s.pos, 1.0);
  EXPECT_DOUBLE_EQ(s.neg, 0.0);
}

TEST(SignStatistics, EmptyInputIsAllZero) {
  const std::vector<float> g;
  const SignStats s = sign_statistics(g);
  EXPECT_DOUBLE_EQ(s.pos + s.neg + s.zero, 0.0);
}

TEST(SelectCoordinates, SizeAndRange) {
  Rng rng(9);
  const auto coords = select_coordinates(1000, 0.1, rng);
  EXPECT_EQ(coords.size(), 100u);
  for (const auto c : coords) EXPECT_LT(c, 1000u);
}

TEST(SelectCoordinates, AtLeastOne) {
  Rng rng(9);
  const auto coords = select_coordinates(3, 0.01, rng);
  EXPECT_EQ(coords.size(), 1u);
}

TEST(PairwiseDistances, MatchesDirectComputation) {
  const PairwiseDistances pd(common::GradientMatrix::from_vectors(
      std::vector<std::vector<float>>{
          {0.0f, 0.0f}, {3.0f, 4.0f}, {1.0f, 1.0f}}));
  EXPECT_DOUBLE_EQ(pd.dist2(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(pd.dist2(1, 0), 25.0);
  EXPECT_DOUBLE_EQ(pd.dist2(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(pd.dist2(0, 2), 2.0);
}

TEST(MedianPairwiseCosine, PicksMajorityDirection) {
  // Three aligned gradients and one reversed: the reversed one has median
  // cosine -1 to the others; the aligned ones have median +1. The one-block
  // library kernel matches the oracle's per-client scalar scans.
  const auto grads = common::GradientMatrix::from_vectors(
      std::vector<std::vector<float>>{
          {1.0f, 0.0f}, {2.0f, 0.0f}, {3.0f, 0.0f}, {-1.0f, 0.0f}});
  EXPECT_GT(oracle::median_pairwise_cosine(grads, 0), 0.9);
  EXPECT_LT(oracle::median_pairwise_cosine(grads, 3), -0.9);
  const auto all = median_pairwise_cosines(grads);
  for (std::size_t i = 0; i < grads.rows(); ++i)
    EXPECT_NEAR(all[i], oracle::median_pairwise_cosine(grads, i), 1e-6);
}

TEST(TextTable, AlignsAndFormats) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::fmt(1.2345, 2)});
  t.add_row({"b", "x"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

}  // namespace
}  // namespace signguard
