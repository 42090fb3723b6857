// Figure 1(a): k-means clustering error vs epsilon on the twitter-like
// 400x300 geo grid, comparing the Laplace mechanism (differential
// privacy; G^full) against Blowfish G^{L1,theta} policies with
// theta in {2000km, 1000km, 500km, 100km}.
//
// Output: CSV rows figure,series,epsilon,mean,q25,q75 where the value is
// objective(private) / objective(non-private k-means from the same
// start) — Eqn 10 ratio.

#include <cstdio>

#include "bench_util.h"
#include "data/synthetic.h"

namespace blowfish {
namespace {

int Run() {
  Random rng(20140612);
  // The paper's twitter snapshot: 193,563 tweets.
  Dataset data = GenerateTwitterLike(193563, rng).value();
  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 10;
  const size_t reps = BenchReps(5);  // paper: 50

  std::vector<SeriesPoint> all;
  auto add = [&](const std::string& label, const Policy& policy) {
    auto series =
        bench::KMeansErrorSeries(label, data, policy, opts, reps, rng);
    all.insert(all.end(), series.begin(), series.end());
  };
  add("laplace", Policy::FullDomain(data.domain_ptr()).value());
  for (double theta_km : {2000.0, 1000.0, 500.0, 100.0}) {
    add("blowfish|" + std::to_string(static_cast<int>(theta_km)) + "km",
        Policy::DistanceThreshold(data.domain_ptr(), theta_km).value());
  }
  PrintSeries("fig1a", all);
  return 0;
}

}  // namespace
}  // namespace blowfish

int main() { return blowfish::Run(); }
