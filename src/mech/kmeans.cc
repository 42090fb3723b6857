#include "mech/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace blowfish {

namespace {

double SquaredL2(const double* a, const double* b, size_t dim) {
  double total = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

size_t NearestCentroid(const double* point, const Centroids& centroids) {
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids.size(); ++c) {
    double d = SquaredL2(point, centroids[c].data(), centroids[c].size());
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

/// Random initial centroids drawn from the data points.
Centroids InitCentroids(const std::vector<std::vector<double>>& points,
                        size_t k, Random& rng) {
  Centroids centroids;
  centroids.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    size_t idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(points.size()) - 1));
    centroids.push_back(points[idx]);
  }
  return centroids;
}

Status ValidateInputs(const std::vector<std::vector<double>>& points,
                      const KMeansOptions& opts) {
  if (points.empty()) {
    return Status::InvalidArgument("k-means needs at least one point");
  }
  if (opts.k == 0 || opts.k > points.size()) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (opts.iterations == 0) {
    return Status::InvalidArgument("need at least one iteration");
  }
  const size_t dim = points[0].size();
  for (const auto& p : points) {
    if (p.size() != dim) {
      return Status::InvalidArgument("points have inconsistent dimensions");
    }
  }
  return Status::OK();
}

}  // namespace

double KMeansObjective(const std::vector<std::vector<double>>& points,
                       const Centroids& centroids) {
  double total = 0.0;
  for (const auto& p : points) {
    total += SquaredL2(p.data(),
                       centroids[NearestCentroid(p.data(), centroids)].data(),
                       p.size());
  }
  return total;
}

StatusOr<KMeansResult> LloydKMeans(
    const std::vector<std::vector<double>>& points, const KMeansOptions& opts,
    Random& rng) {
  BLOWFISH_RETURN_IF_ERROR(ValidateInputs(points, opts));
  const size_t dim = points[0].size();
  Centroids centroids = InitCentroids(points, opts.k, rng);
  for (size_t iter = 0; iter < opts.iterations; ++iter) {
    std::vector<std::vector<double>> sums(opts.k,
                                          std::vector<double>(dim, 0.0));
    std::vector<double> sizes(opts.k, 0.0);
    for (const auto& p : points) {
      size_t c = NearestCentroid(p.data(), centroids);
      sizes[c] += 1.0;
      for (size_t i = 0; i < dim; ++i) sums[c][i] += p[i];
    }
    for (size_t c = 0; c < opts.k; ++c) {
      if (sizes[c] < 1.0) continue;  // keep the old centroid
      for (size_t i = 0; i < dim; ++i) centroids[c][i] = sums[c][i] / sizes[c];
    }
  }
  KMeansResult result;
  result.centroids = std::move(centroids);
  result.objective = KMeansObjective(points, result.centroids);
  return result;
}

StatusOr<Centroids> SuLQKMeans(const Histogram& hist, const Domain& domain,
                               double qsum_sensitivity,
                               double qsize_sensitivity, double epsilon,
                               const KMeansOptions& opts, Random& rng) {
  if (hist.size() != domain.size()) {
    return Status::InvalidArgument(
        "k-means needs the complete histogram of its domain");
  }
  if (opts.k == 0) return Status::InvalidArgument("k must be at least 1");
  if (opts.iterations == 0) {
    return Status::InvalidArgument("need at least one iteration");
  }
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (qsum_sensitivity < 0.0 || qsize_sensitivity < 0.0) {
    return Status::InvalidArgument("sensitivities must be non-negative");
  }
  const size_t dim = domain.num_attributes();
  // h(D)'s non-empty cells, listed once: each cell's count, its integer
  // coordinates and its embedded point (coordinate * scale).
  std::vector<uint64_t> counts;
  std::vector<uint64_t> levels;
  std::vector<double> points;
  for (size_t x = 0; x < hist.size(); ++x) {
    const double count = hist[x];
    if (count == 0.0) continue;
    if (!std::isfinite(count) || count < 0.0 || count != std::floor(count)) {
      return Status::InvalidArgument(
          "k-means needs whole, non-negative cell counts");
    }
    counts.push_back(static_cast<uint64_t>(count));
    for (size_t i = 0; i < dim; ++i) {
      const uint64_t level = domain.Coordinate(x, i);
      levels.push_back(level);
      points.push_back(domain.attribute(i).scale *
                       static_cast<double>(level));
    }
  }
  std::vector<double> box_hi(dim);
  for (size_t i = 0; i < dim; ++i) {
    box_hi[i] = domain.attribute(i).scale *
                static_cast<double>(domain.attribute(i).cardinality - 1);
  }
  // Public starting centroids: the first partition must not depend on
  // any row's exact value.
  Centroids centroids(opts.k, std::vector<double>(dim));
  for (auto& centroid : centroids) {
    for (size_t i = 0; i < dim; ++i) centroid[i] = rng.Uniform(0.0, box_hi[i]);
  }
  // Uniform budget per iteration, split evenly between q_size and q_sum
  // (sequential composition, Thm 4.1).
  const double eps_iter = epsilon / static_cast<double>(opts.iterations);
  const double eps_size = eps_iter / 2.0;
  const double eps_sum = eps_iter / 2.0;
  std::vector<uint64_t> sizes(opts.k);
  std::vector<uint64_t> sums(opts.k * dim);
  for (size_t iter = 0; iter < opts.iterations; ++iter) {
    std::fill(sizes.begin(), sizes.end(), 0);
    std::fill(sums.begin(), sums.end(), 0);
    for (size_t j = 0; j < counts.size(); ++j) {
      const size_t c = NearestCentroid(&points[j * dim], centroids);
      sizes[c] += counts[j];
      for (size_t i = 0; i < dim; ++i) {
        sums[c * dim + i] += counts[j] * levels[j * dim + i];
      }
    }
    for (size_t c = 0; c < opts.k; ++c) {
      double noisy_size = static_cast<double>(sizes[c]);
      if (qsize_sensitivity > 0.0) {
        noisy_size += rng.Laplace(qsize_sensitivity / eps_size);
      }
      noisy_size = std::max(noisy_size, 1.0);
      for (size_t i = 0; i < dim; ++i) {
        double noisy_sum = static_cast<double>(sums[c * dim + i]) *
                           domain.attribute(i).scale;
        if (qsum_sensitivity > 0.0) {
          noisy_sum += rng.Laplace(qsum_sensitivity / eps_sum);
        }
        centroids[c][i] = std::clamp(noisy_sum / noisy_size, 0.0, box_hi[i]);
      }
    }
  }
  return centroids;
}

}  // namespace blowfish
