// K-means clustering (Sec 6): the non-private Lloyd baseline and SuLQ
// private k-means (Blum et al. [2]) over the complete histogram h(D).
//
// Each iteration of private k-means asks two queries: q_size (cluster
// sizes — sensitivity 2, a histogram) and q_sum (per-cluster coordinate
// sums — sensitivity 2 d(T) under differential privacy, but only
// 2 theta / 2 max_A |A| / 2 max_P d(P) under the G^{d,theta} / G^attr /
// G^P Blowfish policies, Lemma 6.1). Calibrating q_sum's noise to the
// policy-specific sensitivity is the entire Blowfish change; the paper's
// Fig 1 measures the resulting accuracy gain.
//
// Both queries are linear in h(D), so SuLQ reads nothing else: it walks
// h(D)'s non-empty cells weighted by their counts, and it starts from
// centroids drawn uniformly in the domain box, so the noised q_size and
// q_sum are the only data-dependent values it releases.

#ifndef BLOWFISH_MECH_KMEANS_H_
#define BLOWFISH_MECH_KMEANS_H_

#include <vector>

#include "core/domain.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace blowfish {

struct KMeansOptions {
  size_t k = 4;
  size_t iterations = 10;  // the paper fixes 10 iterations
};

/// k centroids of d coordinates each.
using Centroids = std::vector<std::vector<double>>;

struct KMeansResult {
  Centroids centroids;
  /// The k-means objective (Eqn 10) of the final centroids on the data:
  /// sum of squared L2 distances to the nearest centroid.
  double objective = 0.0;
};

/// The k-means objective (Eqn 10) for arbitrary centroids on `points`.
double KMeansObjective(const std::vector<std::vector<double>>& points,
                       const Centroids& centroids);

/// Non-private Lloyd iterations from k random data points. The Fig 1
/// benches' baseline is SuLQKMeans without noise instead, so that the
/// private and non-private runs start from the same centroids.
StatusOr<KMeansResult> LloydKMeans(
    const std::vector<std::vector<double>>& points, const KMeansOptions& opts,
    Random& rng);

/// SuLQ private k-means over `hist`, the complete histogram h(D) of a
/// dataset on `domain`. The k initial centroids are drawn uniformly in
/// the domain box [0, scale_i (|A_i| - 1)], centroid by centroid, before
/// any noise. Each iteration assigns every non-empty cell to its nearest
/// centroid, sums counts and integer coordinates per cluster (scaled
/// once), and releases each cluster's size and then its d coordinate
/// sums with Laplace noise; noisy sizes are floored at 1 and noisy
/// centroids clamped into the box. The per-iteration budget
/// eps/iterations is split evenly between q_size and q_sum. Pass
/// qsum_sensitivity = 2 d(T) for eps-differential privacy or a
/// policy-specific value (QSumSensitivity) for (eps, P)-Blowfish privacy.
StatusOr<Centroids> SuLQKMeans(const Histogram& hist, const Domain& domain,
                               double qsum_sensitivity,
                               double qsize_sensitivity, double epsilon,
                               const KMeansOptions& opts, Random& rng);

}  // namespace blowfish

#endif  // BLOWFISH_MECH_KMEANS_H_
