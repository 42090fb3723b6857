// google-benchmark micro-benchmarks: throughput of the core mechanisms and
// their substrates at realistic domain sizes.

#include <benchmark/benchmark.h>

#include <memory>

#include "core/policy.h"
#include "core/sensitivity.h"
#include "mech/constrained_inference.h"
#include "mech/hierarchical.h"
#include "mech/kmeans.h"
#include "mech/laplace.h"
#include "mech/ordered.h"
#include "mech/ordered_hierarchical.h"
#include "util/random.h"

namespace blowfish {
namespace {

Histogram MakeData(size_t domain, size_t n) {
  Random rng(1);
  Histogram h(domain);
  for (size_t i = 0; i < n; ++i) {
    h.Add(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(domain) - 1)));
  }
  return h;
}

void BM_LaplaceRelease(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  std::vector<double> truth(dim, 10.0);
  Random rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LaplaceRelease(truth, 2.0, 0.5, rng).value());
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_LaplaceRelease)->Arg(1024)->Arg(16384);

void BM_IsotonicRegression(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(3);
  std::vector<double> ys(n);
  double run = 0.0;
  for (double& y : ys) {
    run += rng.Uniform(0, 2);
    y = run + rng.Laplace(5.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsotonicRegression(ys).value());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IsotonicRegression)->Arg(4096)->Arg(65536);

void BM_OrderedMechanism(benchmark::State& state) {
  const size_t domain = static_cast<size_t>(state.range(0));
  Histogram data = MakeData(domain, 50000);
  auto dom = std::make_shared<const Domain>(Domain::Line(domain).value());
  Policy p = Policy::Line(dom).value();
  Random rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(OrderedMechanism(data, p, 0.5, rng).value());
  }
}
BENCHMARK(BM_OrderedMechanism)->Arg(4357)->Arg(65536);

void BM_HierarchicalRelease(benchmark::State& state) {
  const size_t domain = static_cast<size_t>(state.range(0));
  Histogram data = MakeData(domain, 50000);
  HierarchicalOptions opts;
  opts.fanout = 16;
  Random rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HierarchicalMechanism::Release(data, 0.5, opts, rng).value());
  }
}
BENCHMARK(BM_HierarchicalRelease)->Arg(4357)->Arg(65536);

void BM_OrderedHierarchicalRelease(benchmark::State& state) {
  const size_t domain = static_cast<size_t>(state.range(0));
  Histogram data = MakeData(domain, 50000);
  auto dom = std::make_shared<const Domain>(Domain::Line(domain).value());
  Policy p = Policy::DistanceThreshold(dom, 100.0).value();
  OrderedHierarchicalOptions opts;
  opts.fanout = 16;
  Random rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        OrderedHierarchicalMechanism::Release(data, p, 0.5, opts, rng)
            .value());
  }
}
BENCHMARK(BM_OrderedHierarchicalRelease)->Arg(4357)->Arg(65536);

void BM_OHRangeQuery(benchmark::State& state) {
  const size_t domain = 65536;
  Histogram data = MakeData(domain, 50000);
  auto dom = std::make_shared<const Domain>(Domain::Line(domain).value());
  Policy p = Policy::DistanceThreshold(dom, 256.0).value();
  OrderedHierarchicalOptions opts;
  opts.fanout = 16;
  Random rng(7);
  auto m =
      OrderedHierarchicalMechanism::Release(data, p, 0.5, opts, rng).value();
  size_t lo = 123, hi = 54321;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.RangeQuery(lo, hi).value());
  }
}
BENCHMARK(BM_OHRangeQuery);

void BM_KMeansIterationPrivate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(8);
  // n rows uniform on the 101x101 grid, as h(D): SuLQ walks its
  // non-empty cells.
  const Domain grid = Domain::Grid(101, 2).value();
  Histogram hist(grid.size());
  for (size_t i = 0; i < n; ++i) {
    hist.Add(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(grid.size()) - 1)));
  }
  KMeansOptions opts;
  opts.k = 4;
  opts.iterations = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SuLQKMeans(hist, grid, 20.0, 2.0, 0.5, opts, rng).value());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KMeansIterationPrivate)->Arg(10000)->Arg(100000);

void BM_SensitivityEngineThetaGraph(benchmark::State& state) {
  auto dom =
      std::make_shared<const Domain>(Domain::Line(4357).value());
  auto g = DistanceThresholdGraph::Create(dom, 50.0).value();
  CumulativeHistogramQuery q(dom->size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        UnconstrainedSensitivity(q, *g, uint64_t{1} << 26).value());
  }
}
BENCHMARK(BM_SensitivityEngineThetaGraph);

}  // namespace
}  // namespace blowfish

BENCHMARK_MAIN();
