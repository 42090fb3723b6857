// Figure 1(d): the interplay of dataset size and Blowfish —
// Objective(Laplace) / Objective(Blowfish|theta=128) on the skin data at
// 1%, 10%, and full size, for eps in {0.1, 0.5, 1.0}.

#include "bench_util.h"
#include "data/synthetic.h"

namespace blowfish {
namespace {

double MeanPrivateObjective(const Histogram& hist,
                            const std::vector<std::vector<double>>& rows,
                            const Policy& policy, const KMeansOptions& opts,
                            double eps, size_t reps, Random& rng) {
  double total = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    Random fork = rng.Fork();
    total += bench::PrivateObjective(hist, rows, policy, eps, opts, fork);
  }
  return total / static_cast<double>(reps);
}

int Run() {
  Random rng(20140615);
  Dataset full = GenerateSkinLike(245057, rng).value();
  Dataset skin10 = Subsample(full, 0.10, rng).value();
  Dataset skin01 = Subsample(full, 0.01, rng).value();
  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 10;
  const size_t reps = BenchReps(5);  // paper: 50

  std::vector<SeriesPoint> all;
  struct Entry {
    const char* label;
    const Dataset* data;
  };
  for (const Entry& e : {Entry{"1%sample", &skin01},
                         Entry{"10%sample", &skin10},
                         Entry{"full", &full}}) {
    Policy laplace = Policy::FullDomain(e.data->domain_ptr()).value();
    Policy blowfish128 =
        Policy::DistanceThreshold(e.data->domain_ptr(), 128.0).value();
    const Histogram hist = e.data->CompleteHistogram().value();
    const std::vector<std::vector<double>> rows = e.data->Points();
    for (double eps : {0.1, 0.5, 1.0}) {
      double obj_lap =
          MeanPrivateObjective(hist, rows, laplace, opts, eps, reps, rng);
      double obj_bf =
          MeanPrivateObjective(hist, rows, blowfish128, opts, eps, reps, rng);
      Summary s;
      s.mean = obj_lap / obj_bf;
      s.lower_quartile = s.mean;
      s.upper_quartile = s.mean;
      all.push_back(SeriesPoint{e.label, eps, s});
    }
  }
  PrintSeries("fig1d", all);
  return 0;
}

}  // namespace
}  // namespace blowfish

int main() { return blowfish::Run(); }
