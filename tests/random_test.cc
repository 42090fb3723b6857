#include "util/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/stats.h"

namespace blowfish {
namespace {

TEST(RandomTest, DeterministicFromSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RandomTest, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RandomTest, UniformIntInclusiveBounds) {
  Random rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    saw_lo |= (v == 0);
    saw_hi |= (v == 9);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// Laplace(b) has mean 0 and variance 2 b^2; check both empirically.
TEST(RandomTest, LaplaceMoments) {
  Random rng(123);
  const double scale = 2.5;
  const size_t n = 200000;
  std::vector<double> draws(n);
  for (size_t i = 0; i < n; ++i) draws[i] = rng.Laplace(scale);
  EXPECT_NEAR(Mean(draws), 0.0, 0.05);
  EXPECT_NEAR(Variance(draws), 2.0 * scale * scale, 0.3);
}

// Laplace()'s draws are pinned: the first draws of seed 2014, as
// recorded before Laplace() and LaplaceAt() came to share one inverse
// CDF.
TEST(RandomTest, LaplaceDrawsArePinned) {
  Random rng(2014);
  EXPECT_EQ(rng.Laplace(1.5), 6.2626047921510564);
  EXPECT_EQ(rng.Laplace(1.5), -1.6911288188467131);
  EXPECT_EQ(rng.Laplace(1.5), -0.30380220601825031);
  EXPECT_EQ(rng.Laplace(1.5), 0.0066956289278249405);
  EXPECT_EQ(rng.Laplace(1.5), 0.40850196845947689);
}

// LaplaceAt is a pure function of (key, index): the same pair gives the
// same draw whatever was drawn before, and distinct indices of one key,
// or one index under distinct keys, give distinct draws.
TEST(RandomTest, LaplaceAtIsAPureFunctionOfKeyAndIndex) {
  const uint64_t key = 0x2014;
  const double first = Random::LaplaceAt(key, 349523, 1.5);
  for (uint64_t i = 0; i < 1000; ++i) Random::LaplaceAt(key, i, 1.5);
  EXPECT_EQ(Random::LaplaceAt(key, 349523, 1.5), first);

  std::set<double> by_index;
  for (uint64_t i = 0; i < 10000; ++i) {
    by_index.insert(Random::LaplaceAt(key, i, 1.0));
  }
  EXPECT_EQ(by_index.size(), 10000u);
  std::set<double> by_key;
  for (uint64_t k = 0; k < 10000; ++k) {
    by_key.insert(Random::LaplaceAt(k, 7, 1.0));
  }
  EXPECT_EQ(by_key.size(), 10000u);
}

// Over 10^5 indices of one key, LaplaceAt has Laplace(b)'s mean 0,
// variance 2 b^2 and tail P(|Z| > b ln 2) = 1/2, within the tolerances
// of the sequential sampler's tests.
TEST(RandomTest, LaplaceAtMatchesLaplaceDistribution) {
  const double scale = 2.5;
  const size_t n = 100000;
  std::vector<double> draws(n);
  size_t beyond = 0;
  for (size_t i = 0; i < n; ++i) {
    draws[i] = Random::LaplaceAt(123, i, scale);
    if (std::fabs(draws[i]) > scale * std::log(2.0)) ++beyond;
  }
  EXPECT_NEAR(Mean(draws), 0.0, 0.05);
  EXPECT_NEAR(Variance(draws), 2.0 * scale * scale, 0.3);
  EXPECT_NEAR(static_cast<double>(beyond) / n, 0.5, 0.01);
}

// P(|Z| > t) = exp(-t/b) for Laplace; at t = b ln 2 the tail mass is 1/2.
TEST(RandomTest, LaplaceTailProbability) {
  Random rng(9);
  const double t = std::log(2.0);
  size_t beyond = 0;
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(rng.Laplace(1.0)) > t) ++beyond;
  }
  EXPECT_NEAR(static_cast<double>(beyond) / n, 0.5, 0.01);
}

TEST(RandomTest, LaplaceSymmetry) {
  Random rng(31);
  size_t positive = 0;
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Laplace(3.0) > 0.0) ++positive;
  }
  EXPECT_NEAR(static_cast<double>(positive) / n, 0.5, 0.01);
}

TEST(RandomTest, LaplaceVectorSizeAndIndependence) {
  Random rng(11);
  std::vector<double> v = rng.LaplaceVector(1000, 1.0);
  ASSERT_EQ(v.size(), 1000u);
  // Lag-1 sample autocorrelation should be near zero.
  double mean = Mean(v);
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i + 1 < v.size(); ++i) {
    num += (v[i] - mean) * (v[i + 1] - mean);
  }
  for (size_t i = 0; i < v.size(); ++i) {
    den += (v[i] - mean) * (v[i] - mean);
  }
  EXPECT_LT(std::fabs(num / den), 0.1);
}

TEST(RandomTest, GaussianMoments) {
  Random rng(77);
  const size_t n = 100000;
  std::vector<double> draws(n);
  for (size_t i = 0; i < n; ++i) draws[i] = rng.Gaussian(5.0, 3.0);
  EXPECT_NEAR(Mean(draws), 5.0, 0.05);
  EXPECT_NEAR(Variance(draws), 9.0, 0.2);
}

TEST(RandomTest, ForkProducesDistinctStream) {
  Random a(42);
  Random fork = a.Fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (fork.Uniform() == a.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RandomTest, StreamForkIsReproducible) {
  Random a(42), b(42);
  // Draw from `a` first: stream forks must not depend on generator state.
  for (int i = 0; i < 17; ++i) a.Uniform();
  Random fa = a.Fork(uint64_t{5});
  Random fb = b.Fork(uint64_t{5});
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(fa.Uniform(), fb.Uniform());
  }
}

TEST(RandomTest, StreamForksDiffer) {
  Random root(42);
  Random s0 = root.Fork(uint64_t{0});
  Random s1 = root.Fork(uint64_t{1});
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0.Uniform() == s1.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RandomTest, StreamForkDiffersFromRootStream) {
  // Fork(id) must not just reuse the root seed: stream 0 of seed 42 and a
  // fresh Random(42) should be unrelated sequences.
  Random root(42);
  Random s0 = root.Fork(uint64_t{0});
  Random raw(42);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0.Uniform() == raw.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace blowfish
