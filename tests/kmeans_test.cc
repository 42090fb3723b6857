#include "mech/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/dataset.h"

namespace blowfish {
namespace {

// Four tight, well-separated clusters in 2-D.
std::vector<std::vector<double>> FourClusters(size_t per_cluster,
                                              Random& rng) {
  const double centers[4][2] = {{5, 5}, {5, 45}, {45, 5}, {45, 45}};
  std::vector<std::vector<double>> points;
  points.reserve(4 * per_cluster);
  for (const auto& c : centers) {
    for (size_t i = 0; i < per_cluster; ++i) {
      points.push_back({c[0] + rng.Gaussian(0, 1), c[1] + rng.Gaussian(0, 1)});
    }
  }
  return points;
}

// FourClusters rounded onto the 51x51 scale-1 grid, whose domain box is
// [0, 50]^2.
Dataset FourClustersOnGrid(size_t per_cluster, Random& rng) {
  auto dom = std::make_shared<const Domain>(Domain::Grid(51, 2).value());
  std::vector<ValueIndex> tuples;
  for (const auto& p : FourClusters(per_cluster, rng)) {
    std::vector<uint64_t> levels;
    for (double v : p) {
      levels.push_back(static_cast<uint64_t>(
          std::clamp(std::round(v), 0.0, 50.0)));
    }
    tuples.push_back(dom->Encode(levels));
  }
  return Dataset::Create(dom, std::move(tuples)).value();
}

TEST(KMeansObjectiveTest, ExactForKnownAssignment) {
  std::vector<std::vector<double>> points = {{0, 0}, {2, 0}, {10, 0}};
  std::vector<std::vector<double>> centroids = {{1, 0}, {10, 0}};
  // Points 0,1 -> centroid (1,0) at squared distance 1 each; point 2 -> 0.
  EXPECT_DOUBLE_EQ(KMeansObjective(points, centroids), 2.0);
}

TEST(LloydKMeansTest, Validation) {
  Random rng(1);
  KMeansOptions opts;
  EXPECT_FALSE(LloydKMeans({}, opts, rng).ok());
  opts.k = 5;
  EXPECT_FALSE(LloydKMeans({{1.0}, {2.0}}, opts, rng).ok());  // k > n
  opts.k = 1;
  opts.iterations = 0;
  EXPECT_FALSE(LloydKMeans({{1.0}}, opts, rng).ok());
  std::vector<std::vector<double>> ragged = {{1.0, 2.0}, {3.0}};
  opts.iterations = 5;
  EXPECT_FALSE(LloydKMeans(ragged, opts, rng).ok());
}

TEST(LloydKMeansTest, RecoversWellSeparatedClusters) {
  Random rng(42);
  auto points = FourClusters(100, rng);
  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 15;
  // Run a few restarts and keep the best, as any k-means user would.
  double best = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < 5; ++restart) {
    best = std::min(best, LloydKMeans(points, opts, rng).value().objective);
  }
  // With sigma=1 clusters of 100 points each, per-point E||x-mu||^2 ~ 2,
  // so a correct clustering has objective ~ 800.
  EXPECT_LT(best, 1500.0);
}

TEST(SuLQKMeansTest, Validation) {
  Random rng(1);
  const Domain line = Domain::Line(4).value();
  const Histogram hist(std::vector<double>{1, 0, 1, 0});
  KMeansOptions opts;
  opts.k = 2;
  EXPECT_FALSE(SuLQKMeans(hist, line, 1.0, 2.0, 0.0, opts, rng).ok());
  EXPECT_FALSE(SuLQKMeans(Histogram(3), line, 1.0, 2.0, 1.0, opts, rng).ok());
  EXPECT_FALSE(SuLQKMeans(hist, line, -1.0, 2.0, 1.0, opts, rng).ok());
  EXPECT_FALSE(SuLQKMeans(Histogram(std::vector<double>{1, 0.5, 0, 0}), line,
                          1.0, 2.0, 1.0, opts, rng)
                   .ok());
  EXPECT_FALSE(SuLQKMeans(Histogram(std::vector<double>{1, -1, 0, 0}), line,
                          1.0, 2.0, 1.0, opts, rng)
                   .ok());
  opts.k = 0;
  EXPECT_FALSE(SuLQKMeans(hist, line, 1.0, 2.0, 1.0, opts, rng).ok());
  opts.k = 2;
  opts.iterations = 0;
  EXPECT_FALSE(SuLQKMeans(hist, line, 1.0, 2.0, 1.0, opts, rng).ok());
  opts.iterations = 3;
  // k need not be at most n: the centroids are public draws, not rows.
  opts.k = 5;
  auto ok = SuLQKMeans(hist, line, 1.0, 2.0, 1.0, opts, rng);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), 5u);
}

TEST(SuLQKMeansTest, CentroidsStayInBox) {
  Random rng(7);
  Dataset data = FourClustersOnGrid(50, rng);
  KMeansOptions opts;
  opts.k = 4;
  auto centroids = SuLQKMeans(data.CompleteHistogram().value(), data.domain(),
                              /*qsum_sensitivity=*/100.0,
                              /*qsize_sensitivity=*/2.0,
                              /*epsilon=*/0.1, opts, rng)
                       .value();
  ASSERT_EQ(centroids.size(), 4u);
  for (const auto& c : centroids) {
    ASSERT_EQ(c.size(), 2u);
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_GE(c[d], 0.0);
      EXPECT_LE(c[d], 50.0);
    }
  }
}

// Smaller q_sum sensitivity (a weaker Blowfish policy) should on average
// yield a no-worse objective than the DP-scale sensitivity — Lemma 6.1's
// utility mechanism in miniature.
TEST(SuLQKMeansTest, LowerSensitivityGivesBetterObjective) {
  Random data_rng(17);
  Dataset data = FourClustersOnGrid(100, data_rng);
  const Histogram hist = data.CompleteHistogram().value();
  const auto points = data.Points();
  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 10;
  const double eps = 0.5;
  double obj_dp = 0.0, obj_bf = 0.0;
  Random rng(19);
  const int reps = 30;
  for (int rep = 0; rep < reps; ++rep) {
    obj_dp += KMeansObjective(
        points,
        SuLQKMeans(hist, data.domain(), 200.0, 2.0, eps, opts, rng).value());
    obj_bf += KMeansObjective(
        points,
        SuLQKMeans(hist, data.domain(), 10.0, 2.0, eps, opts, rng).value());
  }
  EXPECT_LT(obj_bf, obj_dp);
}

/// SuLQ written as a walk over the rows, independently of the
/// mechanism: the same initial draws (uniform in the domain box,
/// centroid by centroid), one nearest-centroid assignment per row
/// (first centroid wins ties), and per cluster one q_size draw followed
/// by d q_sum draws.
Centroids ReferenceRowWalk(const Dataset& data, double qsum, double qsize,
                           double eps, const KMeansOptions& opts,
                           Random& rng) {
  const Domain& dom = data.domain();
  const size_t dim = dom.num_attributes();
  std::vector<double> hi(dim);
  for (size_t i = 0; i < dim; ++i) {
    hi[i] = dom.attribute(i).scale *
            static_cast<double>(dom.attribute(i).cardinality - 1);
  }
  Centroids centroids(opts.k, std::vector<double>(dim));
  for (auto& c : centroids) {
    for (size_t i = 0; i < dim; ++i) c[i] = rng.Uniform(0.0, hi[i]);
  }
  const double eps_half =
      eps / static_cast<double>(opts.iterations) / 2.0;
  const auto rows = data.Points();
  for (size_t iter = 0; iter < opts.iterations; ++iter) {
    Centroids sums(opts.k, std::vector<double>(dim, 0.0));
    std::vector<double> sizes(opts.k, 0.0);
    for (const auto& p : rows) {
      size_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < opts.k; ++c) {
        double dist = 0.0;
        for (size_t i = 0; i < dim; ++i) {
          const double t = p[i] - centroids[c][i];
          dist += t * t;
        }
        if (dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      sizes[best] += 1.0;
      for (size_t i = 0; i < dim; ++i) sums[best][i] += p[i];
    }
    for (size_t c = 0; c < opts.k; ++c) {
      double size = sizes[c];
      if (qsize > 0.0) size += rng.Laplace(qsize / eps_half);
      size = std::max(size, 1.0);
      for (size_t i = 0; i < dim; ++i) {
        double sum = sums[c][i];
        if (qsum > 0.0) sum += rng.Laplace(qsum / eps_half);
        centroids[c][i] = std::clamp(sum / size, 0.0, hi[i]);
      }
    }
  }
  return centroids;
}

// On a scale-1 grid the cell sums are exact integers, so SuLQ over h(D)
// reproduces the row walk bit for bit — on D, on a neighbour that moves
// one row, and with zero sensitivities (the noiseless walk).
TEST(SuLQKMeansTest, CellWalkMatchesReferenceRowWalkBitForBit) {
  auto dom = std::make_shared<const Domain>(Domain::Grid(16, 2).value());
  Random data_rng(29);
  std::vector<ValueIndex> tuples;
  for (int i = 0; i < 300; ++i) {
    tuples.push_back(static_cast<ValueIndex>(
        data_rng.UniformInt(0, static_cast<int64_t>(dom->size()) - 1)));
  }
  const Dataset data = Dataset::Create(dom, tuples).value();
  const Dataset neighbour =
      data.WithTuple(7, dom->Encode({15, 0})).value();
  ASSERT_NE(data.tuple(7), neighbour.tuple(7));
  KMeansOptions opts;
  opts.k = 3;
  opts.iterations = 5;
  struct Scale {
    double qsum, qsize;
  };
  for (const Dataset* d : {&data, &neighbour}) {
    for (const Scale s : {Scale{60.0, 2.0}, Scale{4.0, 2.0}, Scale{0.0, 0.0}}) {
      SCOPED_TRACE("qsum " + std::to_string(s.qsum));
      for (uint64_t seed : {1u, 2u, 3u}) {
        Random mech_rng(seed), ref_rng(seed);
        const Centroids served =
            SuLQKMeans(d->CompleteHistogram().value(), *dom, s.qsum, s.qsize,
                       0.8, opts, mech_rng)
                .value();
        const Centroids reference =
            ReferenceRowWalk(*d, s.qsum, s.qsize, 0.8, opts, ref_rng);
        EXPECT_EQ(served, reference) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace blowfish
