// google-benchmark micro-benchmarks: throughput of the core mechanisms and
// their substrates at realistic domain sizes.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/sensitivity.h"
#include "data/csv_loader.h"
#include "data/synthetic.h"
#include "mech/constrained_inference.h"
#include "mech/hierarchical.h"
#include "mech/kmeans.h"
#include "mech/laplace.h"
#include "mech/ordered.h"
#include "mech/ordered_hierarchical.h"
#include "obs/metrics.h"
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

/// `data` as a CSV: a header of attribute names, then one row of
/// comma-separated levels per tuple.
std::string CsvText(const Dataset& data) {
  const Domain& domain = data.domain();
  std::string text;
  for (size_t a = 0; a < domain.num_attributes(); ++a) {
    text += (a == 0 ? "" : ",") + domain.attribute(a).name;
  }
  text += "\n";
  for (ValueIndex v : data.tuples()) {
    for (size_t a = 0; a < domain.num_attributes(); ++a) {
      if (a > 0) text += ",";
      text += std::to_string(domain.Coordinate(v, a));
    }
    text += "\n";
  }
  return text;
}

/// LoadCsv's rows/s on 2^20 rows of one corpus shape: 0 adult-like (one
/// column of 4357 levels, mostly 0), 1 latitude-like (one column of 400
/// levels), 2 the twitter-like 400x300 grid (two columns).
void BM_LoadCsv(benchmark::State& state) {
  constexpr size_t kRows = size_t{1} << 20;
  Random rng(9);
  StatusOr<Dataset> data = Status::Internal("no shape");
  switch (state.range(0)) {
    case 0:
      state.SetLabel("adult-like");
      data = GenerateAdultCapitalLossLike(kRows, rng);
      break;
    case 1:
      state.SetLabel("latitude-like");
      data = GenerateTwitterLatitudeLike(kRows, rng);
      break;
    default:
      state.SetLabel("400x300 grid");
      data = GenerateTwitterLike(kRows, rng);
  }
  const std::string text = CsvText(data.value());
  std::vector<CsvColumnSpec> columns;
  for (size_t a = 0; a < data->domain().num_attributes(); ++a) {
    columns.push_back({a, data->domain().attribute(a), 1.0, 0.0});
  }
  obs::MetricsRegistry registry;
  CsvOptions options;
  options.metrics = &registry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LoadCsv(text, columns, options).value());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_LoadCsv)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace blowfish

BENCHMARK_MAIN();
