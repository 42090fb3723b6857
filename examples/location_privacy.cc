// Location privacy: k-means clustering of geo data under Blowfish
// policies (the Sec 6 scenario).
//
// A data publisher holds ~200k geo-tagged points on a 400x300 grid
// (~5.55 km cells) and wants cluster centroids for a facility-placement
// study. Full differential privacy treats "Seattle vs San Diego" and
// "this block vs the next block" as equally sensitive; a distance-
// threshold policy protects only locations within theta of each other,
// and a partition policy hides the location within coarse cells only.

#include <cstdio>

#include "core/sensitivity.h"
#include "data/synthetic.h"
#include "mech/kmeans.h"

using namespace blowfish;

int main() {
  Random rng(2014);
  Dataset tweets = GenerateTwitterLike(193563, rng).value();
  auto domain = tweets.domain_ptr();

  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 10;
  const double eps = 0.5;

  // The private mechanism reads only the complete histogram h(D); the
  // rows serve the non-private baseline and the Eqn 10 objective.
  const Histogram hist = tweets.CompleteHistogram().value();
  const auto points = tweets.Points();

  // Non-private baseline for reference.
  auto baseline = LloydKMeans(points, opts, rng).value();
  std::printf("non-private objective: %.3g\n\n", baseline.objective);

  struct Scenario {
    const char* description;
    Policy policy;
  };
  Scenario scenarios[] = {
      {"differential privacy (G^full)",
       Policy::FullDomain(domain).value()},
      {"indistinguishable within 500km (G^{L1,500km})",
       Policy::DistanceThreshold(domain, 500.0).value()},
      {"indistinguishable within 100km (G^{L1,100km})",
       Policy::DistanceThreshold(domain, 100.0).value()},
      {"coarse 10x10 partition public, cell-local secret (G^P)",
       Policy::GridPartition(domain, {10, 10}).value()},
  };
  std::printf("%-55s %12s %10s\n", "policy", "S(q_sum,P)", "obj/base");
  for (const Scenario& s : scenarios) {
    double qsum = QSumSensitivity(s.policy).value();
    double qsize = QSizeSensitivity(s.policy.graph());
    double total = 0.0;
    const int reps = 5;
    for (int r = 0; r < reps; ++r) {
      total += KMeansObjective(
          points,
          SuLQKMeans(hist, *domain, qsum, qsize, eps, opts, rng).value());
    }
    std::printf("%-55s %12.0f %10.3f\n", s.description, qsum,
                total / reps / baseline.objective);
  }

  std::printf(
      "\nReading the table: the q_sum sensitivity (km of L1 movement an\n"
      "adversary-indistinguishable change can cause) falls with the\n"
      "policy strength, and the clustering objective approaches the\n"
      "non-private baseline (ratio -> 1).\n");
  return 0;
}
