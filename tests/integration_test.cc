// Cross-module integration tests: full pipelines from synthetic data
// through policies, sensitivity, mechanisms, and post-processing — the
// flows the examples and benches exercise, with assertions.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/attack.h"
#include "core/policy.h"
#include "core/policy_graph.h"
#include "core/sensitivity.h"
#include "data/synthetic.h"
#include "mech/hierarchical.h"
#include "mech/kmeans.h"
#include "mech/laplace.h"
#include "mech/ordered.h"
#include "mech/ordered_hierarchical.h"
#include "util/stats.h"

namespace blowfish {
namespace {

// Pipeline 1: CDF release on sparse salary-like data under a line policy,
// with accuracy far better than the DP hierarchical baseline (Sec 7.1).
TEST(IntegrationTest, CdfReleasePipeline) {
  Random rng(1);
  Dataset data = GenerateAdultCapitalLossLike(20000, rng).value();
  Histogram hist = data.CompleteHistogram().value();
  Policy line = Policy::Line(data.domain_ptr()).value();
  const double eps = 0.5;

  double ordered_mse = 0.0, hierarchical_mse = 0.0;
  std::vector<double> truth = hist.CumulativeSums();
  const int reps = 10;
  for (int rep = 0; rep < reps; ++rep) {
    auto om = OrderedMechanism(hist, line, eps, rng).value();
    ordered_mse += MeanSquaredError(truth, om.inferred_cumulative);

    HierarchicalOptions opts;
    auto hm = HierarchicalMechanism::Release(hist, eps, opts, rng).value();
    std::vector<double> hm_cum(hist.size());
    for (size_t j = 0; j < hist.size(); ++j) {
      hm_cum[j] = hm.CumulativeCount(j).value();
    }
    hierarchical_mse += MeanSquaredError(truth, hm_cum);
  }
  // On data with p << |T| the ordered mechanism dominates by a wide
  // margin; require at least 5x.
  EXPECT_LT(ordered_mse, hierarchical_mse / 5.0);
}

// Pipeline 2: k-means error ordering across policies of decreasing
// strength (the qualitative shape of Fig 1(a)-(c)).
TEST(IntegrationTest, KMeansPolicyStrengthOrdering) {
  Random rng(2);
  Dataset data = GenerateGaussianClusters(1000, 4, 32, rng).value();
  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 10;
  const double eps = 0.4;

  const Histogram hist = data.CompleteHistogram().value();
  const auto points = data.Points();
  auto mean_objective = [&](const Policy& p) {
    double total = 0.0;
    const int reps = 12;
    for (int rep = 0; rep < reps; ++rep) {
      total += KMeansObjective(
          points, SuLQKMeans(hist, data.domain(), QSumSensitivity(p).value(),
                             QSizeSensitivity(p.graph()), eps, opts, rng)
                      .value());
    }
    return total / reps;
  };
  double obj_full =
      mean_objective(Policy::FullDomain(data.domain_ptr()).value());
  double obj_theta_small =
      mean_objective(Policy::DistanceThreshold(data.domain_ptr(), 0.1)
                         .value());
  // Weaker sensitive-information specification -> markedly less noise.
  EXPECT_LT(obj_theta_small, obj_full);
}

// Pipeline 3: histograms under a partition policy release the partition
// counts exactly, and k-means under the finest partition is noiseless
// (the partition|120000 observation of Sec 6.1).
TEST(IntegrationTest, FinestPartitionIsNoiseless) {
  Random rng(3);
  Dataset data = GenerateGaussianClusters(500, 4, 16, rng).value();
  auto dom = data.domain_ptr();
  // One cell per domain value: both q_size and q_sum have sensitivity 0.
  std::vector<uint64_t> cells(dom->num_attributes());
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i] = dom->attribute(i).cardinality;
  }
  Policy finest = Policy::GridPartition(dom, cells).value();
  EXPECT_DOUBLE_EQ(QSumSensitivity(finest).value(), 0.0);
  EXPECT_DOUBLE_EQ(QSizeSensitivity(finest.graph()), 0.0);

  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 10;
  const Histogram hist = data.CompleteHistogram().value();
  // With zero sensitivity no noise is drawn, so epsilon cannot matter:
  // from one seed, eps = 0.1 and eps = 1000 give the same centroids, bit
  // for bit. (kmeans_test checks noiseless runs against a reference row
  // walk from the same public start.)
  const double qsum = QSumSensitivity(finest).value();
  const double qsize = QSizeSensitivity(finest.graph());
  Random rng_a(77), rng_b(77);
  auto at_small_eps = SuLQKMeans(hist, *dom, qsum, qsize, 0.1, opts, rng_a);
  auto at_large_eps =
      SuLQKMeans(hist, *dom, qsum, qsize, 1000.0, opts, rng_b);
  ASSERT_TRUE(at_small_eps.ok()) << at_small_eps.status().ToString();
  ASSERT_TRUE(at_large_eps.ok()) << at_large_eps.status().ToString();
  EXPECT_EQ(*at_small_eps, *at_large_eps);
}

// Pipeline 4: the Sec 3.2 story end-to-end. DP noisy counts + public
// pairwise-sum constraints reconstruct the table; calibrating to the
// policy-graph sensitivity under those constraints defeats the attack.
TEST(IntegrationTest, ConstraintAttackAndDefense) {
  Random rng(4);
  const size_t k = 128;
  std::vector<double> counts(k);
  for (size_t i = 0; i < k; ++i) counts[i] = 20.0 + (i % 5);
  const double eps = 1.0;

  // Attack on plain DP (sensitivity-2 histogram noise).
  auto attacked = RunAveragingAttack(counts, 2.0 / eps, 60, rng).value();
  EXPECT_GT(attacked.fraction_exact, 0.8);  // near-total reconstruction

  // Defense: under Blowfish with the k-1 pairwise-sum constraints the
  // policy graph is a path q_1 -> q_2 -> ... (each adjacent-pair
  // constraint lifted/lowered), and the calibrated noise grows with the
  // longest chain, preventing the variance-averaging attack from
  // converging to the true counts.
  ConstraintSet cs;
  for (size_t i = 0; i + 1 < 8; ++i) {
    cs.Add(CountQuery(
        "pair" + std::to_string(i),
        [i](ValueIndex x) { return x == i || x == i + 1; }));
  }
  LineGraph g(8);
  PolicyGraph pg = PolicyGraph::Build(cs, g, 100000).value();
  double sens = pg.HistogramSensitivityBound().value();
  // The chain structure forces sensitivity well above the DP value 2.
  EXPECT_GE(sens, 4.0);
}

// Pipeline 6: range queries on twitter-latitude-like data across the OH
// theta sweep — error must not increase as theta shrinks (Fig 2(c) shape).
TEST(IntegrationTest, RangeQueryErrorShrinksWithTheta) {
  Random rng(5);
  Dataset data = GenerateTwitterLatitudeLike(20000, rng).value();
  Histogram hist = data.CompleteHistogram().value();
  auto dom = data.domain_ptr();
  const double eps = 0.5;
  OrderedHierarchicalOptions opts;
  opts.fanout = 16;

  Random qrng(6);
  std::vector<std::pair<size_t, size_t>> queries;
  for (int i = 0; i < 60; ++i) {
    auto a = static_cast<size_t>(qrng.UniformInt(0, 399));
    auto b = static_cast<size_t>(qrng.UniformInt(0, 399));
    queries.emplace_back(std::min(a, b), std::max(a, b));
  }
  auto mse_for = [&](const Policy& p) {
    double total = 0.0;
    const int reps = 15;
    for (int rep = 0; rep < reps; ++rep) {
      auto m =
          OrderedHierarchicalMechanism::Release(hist, p, eps, opts, rng)
              .value();
      for (auto [lo, hi] : queries) {
        double truth = hist.RangeSum(lo, hi).value();
        double e = m.RangeQuery(lo, hi).value() - truth;
        total += e * e;
      }
    }
    return total / (reps * queries.size());
  };
  // theta = 5km (line graph granularity ~ one cell) vs full domain.
  double mse_small = mse_for(Policy::Line(dom).value());
  double mse_full = mse_for(Policy::FullDomain(dom).value());
  EXPECT_LT(mse_small, mse_full);
}

}  // namespace
}  // namespace blowfish
