// Figure 1(f): k-means error vs epsilon on the twitter-like grid under
// G^P partition policies of increasing granularity: 10, 100, 1000, 10000,
// and 120000 cells (the last is the original grid — clustering becomes
// exact since both q_size and q_sum have sensitivity 0).

#include "bench_util.h"
#include "data/synthetic.h"

namespace blowfish {
namespace {

int Run() {
  Random rng(20140617);
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
  // Uniform partitions of the 400x300 grid. cells-per-axis pairs chosen so
  // the product matches the paper's partition sizes.
  struct Part {
    const char* label;
    uint64_t cx, cy;
  };
  for (const Part& p : {Part{"partition|10", 5, 2},
                        Part{"partition|100", 10, 10},
                        Part{"partition|1000", 40, 25},
                        Part{"partition|10000", 100, 100},
                        Part{"partition|120000", 400, 300}}) {
    add(p.label,
        Policy::GridPartition(data.domain_ptr(), {p.cx, p.cy}).value());
  }
  PrintSeries("fig1f", all);
  return 0;
}

}  // namespace
}  // namespace blowfish

int main() { return blowfish::Run(); }
