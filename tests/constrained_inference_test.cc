#include "mech/constrained_inference.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/random.h"
#include "util/stats.h"

namespace blowfish {
namespace {

// --- Isotonic regression (PAVA) ---

TEST(IsotonicTest, AlreadyMonotoneIsFixedPoint) {
  std::vector<double> ys = {1.0, 2.0, 2.0, 5.0};
  EXPECT_EQ(IsotonicRegression(ys).value(), ys);
}

TEST(IsotonicTest, SimpleViolationPools) {
  // {3, 1} -> both become the mean 2.
  auto out = IsotonicRegression({3.0, 1.0}).value();
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(IsotonicTest, CascadingPools) {
  // {4, 3, 2, 1} -> all pool to 2.5.
  auto out = IsotonicRegression({4.0, 3.0, 2.0, 1.0}).value();
  for (double v : out) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(IsotonicTest, OutputIsMonotone) {
  Random rng(5);
  std::vector<double> ys(200);
  for (double& y : ys) y = rng.Uniform(-10, 10);
  auto out = IsotonicRegression(ys).value();
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i] + 1e-12, out[i - 1]);
  }
}

// The LS isotonic fit preserves the (weighted) total.
TEST(IsotonicTest, PreservesMean) {
  Random rng(6);
  std::vector<double> ys(100);
  for (double& y : ys) y = rng.Uniform(0, 5);
  auto out = IsotonicRegression(ys).value();
  EXPECT_NEAR(Mean(out), Mean(ys), 1e-9);
}

// Projection property: isotonizing an isotonic output is a no-op.
TEST(IsotonicTest, Idempotent) {
  Random rng(7);
  std::vector<double> ys(100);
  for (double& y : ys) y = rng.Uniform(-3, 3);
  auto once = IsotonicRegression(ys).value();
  auto twice = IsotonicRegression(once).value();
  for (size_t i = 0; i < ys.size(); ++i) {
    EXPECT_NEAR(once[i], twice[i], 1e-12);
  }
}

TEST(IsotonicTest, WeightsRespected) {
  // Heavy first point {0 w=100, -1 w=1}: pooled mean ~ -0.0099, dominated
  // by the heavy point.
  auto out = IsotonicRegression({0.0, -1.0}, {100.0, 1.0}).value();
  EXPECT_NEAR(out[0], -1.0 / 101.0, 1e-12);
  EXPECT_DOUBLE_EQ(out[0], out[1]);
}

TEST(IsotonicTest, WeightValidation) {
  EXPECT_FALSE(IsotonicRegression({1.0, 2.0}, {1.0}).ok());
  EXPECT_FALSE(IsotonicRegression({1.0, 2.0}, {1.0, 0.0}).ok());
  EXPECT_FALSE(IsotonicRegression({1.0, 2.0}, {1.0, -2.0}).ok());
}

// Isotonic regression reduces (never increases) L2 error against any
// monotone ground truth — the mechanism-accuracy property of Sec 7.1.
TEST(IsotonicTest, ReducesErrorAgainstMonotoneTruth) {
  Random rng(11);
  std::vector<double> truth(300);
  double run = 0.0;
  for (double& t : truth) {
    run += rng.Uniform(0.0, 1.0);
    t = run;
  }
  std::vector<double> noisy(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    noisy[i] = truth[i] + rng.Laplace(3.0);
  }
  auto fitted = IsotonicRegression(noisy).value();
  EXPECT_LE(MeanSquaredError(truth, fitted), MeanSquaredError(truth, noisy));
}

// --- ClampCumulative ---

TEST(ClampCumulativeTest, PinsTotalAndClamps) {
  auto out = ClampCumulative({-2.0, 3.0, 12.0, 7.0}, 10.0);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out.back(), 10.0);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], 0.0);
    EXPECT_LE(out[i], 10.0);
  }
  for (size_t i = 1; i < out.size(); ++i) EXPECT_GE(out[i], out[i - 1]);
}

TEST(ClampCumulativeTest, EmptyInput) {
  EXPECT_TRUE(ClampCumulative({}, 5.0).empty());
}

// --- IntervalTree ---

TEST(IntervalTreeTest, BuildValidation) {
  EXPECT_FALSE(IntervalTree::Build(0, 2).ok());
  EXPECT_FALSE(IntervalTree::Build(8, 1).ok());
  EXPECT_TRUE(IntervalTree::Build(8, 2).ok());
}

TEST(IntervalTreeTest, ShapeCompleteBinary) {
  IntervalTree t = IntervalTree::Build(8, 2).value();
  EXPECT_EQ(t.height(), 3u);
  ASSERT_EQ(t.levels.size(), 4u);
  EXPECT_EQ(t.levels[0].size(), 1u);
  EXPECT_EQ(t.levels[1].size(), 2u);
  EXPECT_EQ(t.levels[2].size(), 4u);
  EXPECT_EQ(t.levels[3].size(), 8u);
}

TEST(IntervalTreeTest, ShapeRagged) {
  IntervalTree t = IntervalTree::Build(10, 4).value();
  EXPECT_EQ(t.height(), 2u);  // 4^2 = 16 >= 10
  EXPECT_EQ(t.levels[0].size(), 1u);
  EXPECT_EQ(t.levels[1].size(), 3u);  // ceil(10/4)
  EXPECT_EQ(t.levels[2].size(), 10u);
}

TEST(IntervalTreeTest, FanoutAtOrPastTheLeafCountIsOneLevel) {
  // No power of the fanout is formed, so even the widest one builds the
  // root over the leaves instead of wrapping to an empty root level.
  for (const size_t fanout :
       {size_t{8}, size_t{9}, size_t{1} << 63, ~size_t{0}}) {
    SCOPED_TRACE("fanout " + std::to_string(fanout));
    IntervalTree t = IntervalTree::Build(8, fanout).value();
    EXPECT_EQ(t.height(), 1u);
    ASSERT_EQ(t.levels.size(), 2u);
    EXPECT_EQ(t.levels[0].size(), 1u);
    EXPECT_EQ(t.levels[1].size(), 8u);
    EXPECT_EQ(t.NodeRange(0, 0), (std::pair<size_t, size_t>{0, 8}));
    EXPECT_EQ(t.NodeRange(1, 7), (std::pair<size_t, size_t>{7, 8}));
    t.PopulateFromLeaves({1, 2, 3, 4, 5, 6, 7, 8});
    EXPECT_DOUBLE_EQ(t.levels[0][0], 36.0);
    EXPECT_DOUBLE_EQ(t.PrefixSum(5), 15.0);
    EXPECT_DOUBLE_EQ(t.PrefixSum(8), 36.0);
  }
  // One leaf is the root itself, whatever the fanout.
  EXPECT_EQ(IntervalTree::Build(1, ~size_t{0}).value().height(), 0u);
}

TEST(IntervalTreeTest, NodeRange) {
  IntervalTree t = IntervalTree::Build(10, 4).value();
  EXPECT_EQ(t.NodeRange(0, 0), (std::pair<size_t, size_t>{0, 10}));
  EXPECT_EQ(t.NodeRange(1, 1), (std::pair<size_t, size_t>{4, 8}));
  EXPECT_EQ(t.NodeRange(1, 2), (std::pair<size_t, size_t>{8, 10}));
  EXPECT_EQ(t.NodeRange(2, 9), (std::pair<size_t, size_t>{9, 10}));
}

TEST(IntervalTreeTest, PopulateComputesIntervalSums) {
  IntervalTree t = IntervalTree::Build(5, 2).value();
  t.PopulateFromLeaves({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(t.levels[0][0], 15.0);
  for (size_t l = 0; l <= t.height(); ++l) {
    for (size_t i = 0; i < t.levels[l].size(); ++i) {
      auto [lo, hi] = t.NodeRange(l, i);
      double expected = 0.0;
      for (size_t j = lo; j < hi; ++j) expected += 1.0 + j;
      EXPECT_DOUBLE_EQ(t.levels[l][i], expected) << "level " << l << " node "
                                                 << i;
    }
  }
}

class PrefixSumTest : public ::testing::TestWithParam<
                          std::tuple<size_t /*leaves*/, size_t /*fanout*/>> {
};

TEST_P(PrefixSumTest, MatchesDirectSum) {
  auto [leaves, fanout] = GetParam();
  IntervalTree t = IntervalTree::Build(leaves, fanout).value();
  Random rng(13);
  std::vector<double> vals(leaves);
  for (double& v : vals) v = rng.Uniform(0, 9);
  t.PopulateFromLeaves(vals);
  double run = 0.0;
  EXPECT_DOUBLE_EQ(t.PrefixSum(0), 0.0);
  for (size_t len = 1; len <= leaves; ++len) {
    run += vals[len - 1];
    EXPECT_NEAR(t.PrefixSum(len), run, 1e-9) << "len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PrefixSumTest,
    ::testing::Values(std::make_tuple(1, 2), std::make_tuple(7, 2),
                      std::make_tuple(8, 2), std::make_tuple(9, 2),
                      std::make_tuple(16, 4), std::make_tuple(100, 16),
                      std::make_tuple(4357, 16)));

// --- Tree consistency ---

TEST(TreeConsistencyTest, ConsistentTreeIsFixedPoint) {
  IntervalTree t = IntervalTree::Build(8, 2).value();
  t.PopulateFromLeaves({1, 2, 3, 4, 5, 6, 7, 8});
  IntervalTree out = TreeConsistency(t);
  for (size_t l = 0; l < t.levels.size(); ++l) {
    for (size_t i = 0; i < t.levels[l].size(); ++i) {
      EXPECT_NEAR(out.levels[l][i], t.levels[l][i], 1e-9);
    }
  }
}

TEST(TreeConsistencyTest, OutputIsInternallyConsistent) {
  IntervalTree t = IntervalTree::Build(27, 3).value();
  std::vector<double> leaves(27);
  Random rng(17);
  for (double& v : leaves) v = rng.Uniform(0, 10);
  t.PopulateFromLeaves(leaves);
  // Perturb every node independently.
  for (auto& level : t.levels) {
    for (double& v : level) v += rng.Laplace(2.0);
  }
  IntervalTree out = TreeConsistency(t);
  for (size_t l = 0; l + 1 < out.levels.size(); ++l) {
    for (size_t i = 0; i < out.levels[l].size(); ++i) {
      size_t lo = i * out.fanout;
      size_t hi = std::min(lo + out.fanout, out.levels[l + 1].size());
      double child_sum = 0.0;
      for (size_t c = lo; c < hi; ++c) child_sum += out.levels[l + 1][c];
      EXPECT_NEAR(out.levels[l][i], child_sum, 1e-6)
          << "level " << l << " node " << i;
    }
  }
}

TEST(TreeConsistencyTest, ReducesLeafError) {
  IntervalTree t = IntervalTree::Build(64, 4).value();
  Random rng(23);
  std::vector<double> leaves(64);
  for (double& v : leaves) v = rng.Uniform(0, 20);
  t.PopulateFromLeaves(leaves);
  IntervalTree noisy = t;
  for (auto& level : noisy.levels) {
    for (double& v : level) v += rng.Laplace(3.0);
  }
  IntervalTree inferred = TreeConsistency(noisy);
  double mse_noisy = MeanSquaredError(t.levels.back(), noisy.levels.back());
  double mse_inferred =
      MeanSquaredError(t.levels.back(), inferred.levels.back());
  EXPECT_LT(mse_inferred, mse_noisy);
}

}  // namespace
}  // namespace blowfish
