// Figure 1(b): k-means error vs epsilon on the 1% skin-segmentation
// subsample (B/G/R in [0,255]^3), Laplace vs G^{L1,theta} with
// theta in {256, 128, 64, 32}.

#include "bench_util.h"
#include "data/synthetic.h"

namespace blowfish {
namespace {

int Run() {
  Random rng(20140613);
  Dataset full = GenerateSkinLike(245057, rng).value();
  Dataset skin01 = Subsample(full, 0.01, rng).value();
  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 10;
  const size_t reps = BenchReps(15);  // paper: 50

  std::vector<SeriesPoint> all;
  auto add = [&](const std::string& label, const Policy& policy) {
    auto series =
        bench::KMeansErrorSeries(label, skin01, policy, opts, reps, rng);
    all.insert(all.end(), series.begin(), series.end());
  };
  add("laplace", Policy::FullDomain(skin01.domain_ptr()).value());
  for (double theta : {256.0, 128.0, 64.0, 32.0}) {
    add("blowfish|" + std::to_string(static_cast<int>(theta)),
        Policy::DistanceThreshold(skin01.domain_ptr(), theta).value());
  }
  PrintSeries("fig1b", all);
  return 0;
}

}  // namespace
}  // namespace blowfish

int main() { return blowfish::Run(); }
