// Figure 1(c): k-means error vs epsilon on the paper's synthetic dataset
// (n = 1000 points in (0,1)^4, k = 4 Gaussian clusters, sigma = 0.2),
// Laplace vs G^{L1,theta} with theta in {1.0, 0.5, 0.25, 0.1}.

#include "bench_util.h"
#include "data/synthetic.h"

namespace blowfish {
namespace {

int Run() {
  Random rng(20140614);
  Dataset data = GenerateGaussianClusters(1000, 4, 64, rng).value();
  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 10;
  const size_t reps = BenchReps(20);  // paper: 50

  std::vector<SeriesPoint> all;
  auto add = [&](const std::string& label, const Policy& policy) {
    auto series =
        bench::KMeansErrorSeries(label, data, policy, opts, reps, rng);
    all.insert(all.end(), series.begin(), series.end());
  };
  add("laplace", Policy::FullDomain(data.domain_ptr()).value());
  for (double theta : {1.0, 0.5, 0.25, 0.1}) {
    add("blowfish|" + std::to_string(theta).substr(0, 4),
        Policy::DistanceThreshold(data.domain_ptr(), theta).value());
  }
  PrintSeries("fig1c", all);
  return 0;
}

}  // namespace
}  // namespace blowfish

int main() { return blowfish::Run(); }
