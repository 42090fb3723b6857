// Figure 1(e): k-means error vs epsilon under the G^attr policy against
// the Laplace mechanism, for all three datasets (twitter-like, skin01,
// synthetic). Gains grow with dimensionality and shrink with data size.

#include "bench_util.h"
#include "data/synthetic.h"

namespace blowfish {
namespace {

int Run() {
  Random rng(20140616);
  Dataset twitter = GenerateTwitterLike(193563, rng).value();
  Dataset skin_full = GenerateSkinLike(245057, rng).value();
  Dataset skin01 = Subsample(skin_full, 0.01, rng).value();
  Dataset synth = GenerateGaussianClusters(1000, 4, 64, rng).value();
  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 10;
  const size_t reps = BenchReps(5);  // paper: 50

  std::vector<SeriesPoint> all;
  struct Entry {
    const char* name;
    const Dataset* data;
  };
  for (const Entry& e : {Entry{"twitter", &twitter},
                         Entry{"skin01", &skin01},
                         Entry{"synth", &synth}}) {
    auto lap = bench::KMeansErrorSeries(
        std::string(e.name) + ": laplace", *e.data,
        Policy::FullDomain(e.data->domain_ptr()).value(), opts, reps, rng);
    auto attr = bench::KMeansErrorSeries(
        std::string(e.name) + ": attribute", *e.data,
        Policy::Attribute(e.data->domain_ptr()).value(), opts, reps, rng);
    all.insert(all.end(), lap.begin(), lap.end());
    all.insert(all.end(), attr.begin(), attr.end());
  }
  PrintSeries("fig1e", all);
  return 0;
}

}  // namespace
}  // namespace blowfish

int main() { return blowfish::Run(); }
