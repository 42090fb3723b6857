// Shared runners for the figure-reproduction benches.
//
// Fig 1 benches report the paper's metric: the ratio of the k-means
// objective (Eqn 10) under a private mechanism to the non-private one,
// as a function of epsilon. The private mechanism (SuLQ) reads only
// h(D); Eqn 10 is evaluated over the rows. Each repetition's
// non-private objective is SuLQ's own walk without noise (both
// sensitivities 0) from the same starting centroids, so the ratio
// measures the noise alone and reads exactly 1 where the policy's
// sensitivities are 0. Fig 2 benches report the mean squared error of
// random range queries. Repetition counts default to bench-friendly
// values and can be raised to the paper's 50 via BLOWFISH_BENCH_REPS.

#ifndef BLOWFISH_BENCH_BENCH_UTIL_H_
#define BLOWFISH_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/sensitivity.h"
#include "data/experiment.h"
#include "mech/kmeans.h"
#include "mech/ordered_hierarchical.h"
#include "util/random.h"

namespace blowfish {
namespace bench {

/// Eqn 10 over `rows` of one SuLQ run on `hist`, calibrated to the
/// policy's Lemma 6.1 closed forms (an unconstrained policy).
inline double PrivateObjective(const Histogram& hist,
                               const std::vector<std::vector<double>>& rows,
                               const Policy& policy, double eps,
                               const KMeansOptions& opts, Random& rng) {
  return KMeansObjective(
      rows, SuLQKMeans(hist, policy.domain(), QSumSensitivity(policy).value(),
                       QSizeSensitivity(policy.graph()), eps, opts, rng)
                .value());
}

/// One Fig-1 series: for each epsilon, the mean over repetitions of
/// objective(SuLQ under `policy`) / objective(SuLQ without noise), the
/// noiseless walk running on a copy of the repetition's Random taken
/// before the private run.
inline std::vector<SeriesPoint> KMeansErrorSeries(
    const std::string& label, const Dataset& data, const Policy& policy,
    const KMeansOptions& opts, size_t reps, Random& rng) {
  const Histogram hist = data.CompleteHistogram().value();
  const std::vector<std::vector<double>> rows = data.Points();
  std::vector<SeriesPoint> points;
  for (double eps : PaperEpsilons()) {
    Summary s = Repeat(reps, rng, [&](Random& r) {
      Random noiseless = r;
      const double nonprivate = KMeansObjective(
          rows, SuLQKMeans(hist, policy.domain(), 0.0, 0.0, eps, opts,
                           noiseless)
                    .value());
      return PrivateObjective(hist, rows, policy, eps, opts, r) /
             nonprivate;
    });
    points.push_back(SeriesPoint{label, eps, s});
  }
  return points;
}

/// Random range-query workload over a 1-D domain.
inline std::vector<std::pair<size_t, size_t>> RandomRanges(size_t domain,
                                                           size_t count,
                                                           uint64_t seed) {
  Random rng(seed);
  std::vector<std::pair<size_t, size_t>> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(domain) - 1));
    auto b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(domain) - 1));
    out.emplace_back(std::min(a, b), std::max(a, b));
  }
  return out;
}

/// One Fig-2 series: mean squared range-query error of the OH mechanism
/// under `policy` for each epsilon.
inline std::vector<SeriesPoint> RangeQueryErrorSeries(
    const std::string& label, const Histogram& hist, const Policy& policy,
    const std::vector<std::pair<size_t, size_t>>& queries,
    const OrderedHierarchicalOptions& opts, size_t reps, Random& rng) {
  std::vector<SeriesPoint> points;
  std::vector<double> truth;
  truth.reserve(queries.size());
  for (auto [lo, hi] : queries) {
    truth.push_back(hist.RangeSum(lo, hi).value());
  }
  for (double eps : PaperEpsilons()) {
    Summary s = Repeat(reps, rng, [&](Random& r) {
      auto m = OrderedHierarchicalMechanism::Release(hist, policy, eps,
                                                     opts, r)
                   .value();
      double mse = 0.0;
      for (size_t q = 0; q < queries.size(); ++q) {
        double e = m.RangeQuery(queries[q].first, queries[q].second).value() -
                   truth[q];
        mse += e * e;
      }
      return mse / static_cast<double>(queries.size());
    });
    points.push_back(SeriesPoint{label, eps, s});
  }
  return points;
}

}  // namespace bench
}  // namespace blowfish

#endif  // BLOWFISH_BENCH_BENCH_UTIL_H_
