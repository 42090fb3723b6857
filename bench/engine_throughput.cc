// ReleaseEngine throughput: cold per-query sensitivity recomputation vs
// warm-cache batched serving, plus the thread-count determinism check.
//
// The workload is the expensive case the cache exists for: a constrained
// policy (one marginal, pinned to the bench data, under full-domain
// secrets), where every histogram release needs the weighted Thm 8.2
// chain bound — enumerating every ordered value pair of the |T| = 2048
// domain before the chain search. The cold baseline is one engine whose
// sensitivity cache is cleared before each one-query batch, so every
// query recomputes the bound; the warm engine computes it once and
// serves the rest from the LRU cache.
//
// Output: queries/sec cold vs warm, the speedup (acceptance: >= 5x),
// whether a repeated batch with the same root seed is bit-identical
// across --threads 1 and --threads 4, a persistent-pool vs
// per-batch-thread-spawn executor comparison (the reason
// util/thread_pool.h exists), and whether an EngineHost batch is
// bit-identical for any pool size (acceptance: it is).
//
// A second section times building a fresh engine on a 512k-row dataset
// (Create counts h(D), once) together with its first 64-query histogram
// batch, and checks the transcript is bit-identical across two fresh
// engines with the same root seed.
//
// A third section times the quadtree and hier_range op kinds —
// quadtree on the 512k-row workload and hier_range on a Line(2048)
// ordered tenant — with the same identity check per op.
//
// Alongside the CSV on stdout, the run is written as
// BENCH_engine_throughput.json (override with --json <path>): cold and
// warm throughput, a warm-cache sweep over pool sizes {0, 1, 8}, the
// first-batch and op sections, the pass/fail checks, and a `gate` block
// naming the metrics and checks scripts/check_bench_regression.py gates
// against bench/baselines/, the tracked baseline that makes a perf
// regression show up as a diff, not a memory.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "core/secret_graph.h"
#include "data/synthetic.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "engine/sensitivity_cache.h"
#include "server/engine_host.h"
#include "util/thread_pool.h"
#include "util/random.h"

namespace blowfish {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

StatusOr<std::shared_ptr<const Domain>> MakeGridDomain() {
  // 4 x 512 domain (|T| = 2048): big enough that the ~4M ordered value
  // pairs per constrained sensitivity computation dominate, small
  // enough to bench quickly.
  BLOWFISH_ASSIGN_OR_RETURN(
      Domain dom, Domain::Create({Attribute{"A1", 4, 1.0},
                                  Attribute{"A2", 512, 1.0}}));
  return std::make_shared<const Domain>(std::move(dom));
}

StatusOr<Dataset> MakeData(const std::shared_ptr<const Domain>& domain,
                           size_t n, Random& rng) {
  std::vector<ValueIndex> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(static_cast<ValueIndex>(rng.UniformInt(
        0, static_cast<int64_t>(domain->size()) - 1)));
  }
  return Dataset::Create(domain, std::move(tuples));
}

/// Full-domain secrets plus the [A1] marginal, pinned to `data`'s
/// answers: a publicly known marginal, which the engine calibrates to
/// the weighted Thm 8.2 chain bound. Unpinned, the constraints restrict
/// nothing and the histogram would be served at the closed-form 2.
StatusOr<Policy> MakeConstrainedPolicy(const Dataset& data) {
  ConstraintSet constraints;
  BLOWFISH_RETURN_IF_ERROR(
      constraints.AddMarginal(data.domain_ptr(), Marginal{{0}}, &data));
  auto graph = std::make_shared<const FullGraph>(data.domain().size());
  return Policy::Create(data.domain_ptr(), graph, std::move(constraints));
}

std::vector<QueryRequest> HistogramBatch(size_t count, double eps) {
  std::vector<QueryRequest> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    QueryRequest request = MakeQueryRequest("histogram", eps).value();
    request.label = "q" + std::to_string(i);
    batch.push_back(std::move(request));
  }
  return batch;
}

std::vector<QueryRequest> OpBatch(
    const std::string& kind, size_t count, double eps,
    const std::vector<std::pair<std::string, std::string>>& kv) {
  std::vector<QueryRequest> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    QueryRequest request = MakeQueryRequest(kind, eps, kv).value();
    request.label = kind + std::to_string(i);
    batch.push_back(std::move(request));
  }
  return batch;
}

bool Identical(const std::vector<QueryResponse>& a,
               const std::vector<QueryResponse>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].status.ok() != b[i].status.ok()) return false;
    if (a[i].values != b[i].values) return false;  // bit-exact doubles
    if (a[i].sensitivity != b[i].sensitivity) return false;
  }
  return true;
}

/// One warm-cache sweep point: queries/sec at a given pool size.
struct PoolPoint {
  size_t pool_size = 0;
  double warm_qps = 0.0;
};

int Run(const std::string& json_path) {
  constexpr size_t kColdQueries = 3;
  constexpr size_t kWarmQueries = 64;
  constexpr double kEps = 0.1;
  constexpr uint64_t kSeed = 20140612;

  auto grid = MakeGridDomain();
  if (!grid.ok()) {
    std::fprintf(stderr, "domain: %s\n", grid.status().ToString().c_str());
    return 1;
  }
  Random data_rng(kSeed);
  auto data = MakeData(*grid, 100000, data_rng);
  if (!data.ok()) {
    std::fprintf(stderr, "data: %s\n", data.status().ToString().c_str());
    return 1;
  }
  auto policy = MakeConstrainedPolicy(*data);
  if (!policy.ok()) {
    std::fprintf(stderr, "policy: %s\n", policy.status().ToString().c_str());
    return 1;
  }

  std::printf("# engine_throughput: |T|=%llu, constraints=%zu, n=%zu\n",
              static_cast<unsigned long long>(policy->domain().size()),
              policy->constraints().size(), data->size());

  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 1e9;
  // Two-way parallelism: one worker plus the submitting thread.
  options.pool = std::make_shared<ThreadPool>(1);

  // --- Cold baseline: one-query batches with the sensitivity cache
  // cleared before each, so every query recomputes S(h, P). ---
  double cold_seconds = 0.0;
  double cold_sensitivity = 0.0;
  {
    auto cold = ReleaseEngine::Create(*policy, *data, options);
    if (!cold.ok()) {
      std::fprintf(stderr, "engine: %s\n", cold.status().ToString().c_str());
      return 1;
    }
    const auto cold_start = Clock::now();
    for (size_t i = 0; i < kColdQueries; ++i) {
      (*cold)->cache().Clear();
      auto released = (*cold)->ServeBatch(HistogramBatch(1, kEps));
      if (!released[0].status.ok()) {
        std::fprintf(stderr, "cold release: %s\n",
                     released[0].status.ToString().c_str());
        return 1;
      }
      cold_sensitivity = released[0].sensitivity;
    }
    cold_seconds = SecondsSince(cold_start);
  }
  const double cold_qps = kColdQueries / cold_seconds;

  // --- Warm engine: first batch pays one cache miss, the measured batch
  // is served entirely from the cache. ---
  auto engine = ReleaseEngine::Create(*policy, *data, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  (void)(*engine)->ServeBatch(HistogramBatch(1, kEps));  // pay the miss
  auto warm_start = Clock::now();
  auto warm = (*engine)->ServeBatch(HistogramBatch(kWarmQueries, kEps));
  const double warm_seconds = SecondsSince(warm_start);
  const double warm_qps = kWarmQueries / warm_seconds;
  for (const QueryResponse& r : warm) {
    if (!r.status.ok()) {
      std::fprintf(stderr, "warm release: %s\n", r.status.ToString().c_str());
      return 1;
    }
    // Cold and warm must time the same computation.
    if (r.sensitivity != cold_sensitivity) {
      std::fprintf(stderr, "warm sensitivity %g != cold %g\n",
                   r.sensitivity, cold_sensitivity);
      return 1;
    }
  }
  const SensitivityCache::Stats stats = (*engine)->cache().stats();

  const double speedup = warm_qps / cold_qps;
  std::printf("metric,value\n");
  std::printf("cold_qps,%.3f\n", cold_qps);
  std::printf("warm_qps,%.3f\n", warm_qps);
  std::printf("speedup,%.1f\n", speedup);
  std::printf("sensitivity,%g\n", cold_sensitivity);
  std::printf("cache_hits,%llu\n",
              static_cast<unsigned long long>(stats.hits));
  std::printf("cache_misses,%llu\n",
              static_cast<unsigned long long>(stats.misses));
  std::printf("speedup_check,%s\n", speedup >= 5.0 ? "PASS" : "FAIL");

  // --- Warm-cache throughput vs pool size. -------------------------------
  // Pool size 0 is the inline executor (the submitting thread drains the
  // whole batch); the sweep shows what worker fan-out buys once the
  // sensitivity is cached and the work per query is mechanism-only.
  std::vector<PoolPoint> pool_points;
  for (size_t pool_size : {size_t{0}, size_t{1}, size_t{8}}) {
    ReleaseEngineOptions opts;
    opts.root_seed = kSeed;
    opts.default_session_budget = 1e9;
    opts.pool = std::make_shared<ThreadPool>(pool_size);
    auto e = ReleaseEngine::Create(*policy, *data, opts);
    if (!e.ok()) {
      std::fprintf(stderr, "engine: %s\n", e.status().ToString().c_str());
      return 1;
    }
    (void)(*e)->ServeBatch(HistogramBatch(1, kEps));  // pay the miss
    const auto start = Clock::now();
    auto responses = (*e)->ServeBatch(HistogramBatch(kWarmQueries, kEps));
    const double seconds = SecondsSince(start);
    for (const QueryResponse& r : responses) {
      if (!r.status.ok()) {
        std::fprintf(stderr, "pool sweep release: %s\n",
                     r.status.ToString().c_str());
        return 1;
      }
    }
    pool_points.push_back(PoolPoint{pool_size, kWarmQueries / seconds});
    std::printf("warm_qps_pool_%zu,%.3f\n", pool_size,
                pool_points.back().warm_qps);
  }

  // --- Determinism: same root seed, same request history, different
  // thread counts -> bit-identical output. ---
  bool deterministic = true;
  std::vector<std::vector<QueryResponse>> runs;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ReleaseEngineOptions opts;
    opts.root_seed = kSeed;
    opts.default_session_budget = 1e9;
    opts.pool = std::make_shared<ThreadPool>(threads - 1);
    auto e = ReleaseEngine::Create(*policy, *data, opts);
    if (!e.ok()) {
      std::fprintf(stderr, "engine: %s\n", e.status().ToString().c_str());
      return 1;
    }
    runs.push_back((*e)->ServeBatch(HistogramBatch(16, kEps)));
  }
  deterministic = Identical(runs[0], runs[1]);
  std::printf("determinism_threads_1_vs_4,%s\n",
              deterministic ? "PASS" : "FAIL");

  // --- Persistent pool vs per-batch thread spawn. ------------------------
  // PR 1 spawned a fresh worker set per batch; the server layer keeps one
  // pool alive. Same work, same fan-out width — the difference is pure
  // thread-lifecycle overhead per batch.
  constexpr size_t kExecBatches = 200;
  constexpr size_t kExecWidth = 8;
  auto busy_task = []() {
    // A few microseconds of arithmetic, stand-in for a cheap cached query.
    volatile uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 4000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
  };
  double pool_seconds = 0.0;
  {
    ThreadPool pool(kExecWidth);
    const auto start = Clock::now();
    for (size_t b = 0; b < kExecBatches; ++b) {
      std::vector<std::future<void>> done;
      done.reserve(kExecWidth);
      for (size_t t = 0; t < kExecWidth; ++t) {
        done.push_back(pool.Submit(busy_task));
      }
      for (auto& f : done) f.get();
    }
    pool_seconds = SecondsSince(start);
  }
  double spawn_seconds = 0.0;
  {
    const auto start = Clock::now();
    for (size_t b = 0; b < kExecBatches; ++b) {
      std::vector<std::thread> threads;
      threads.reserve(kExecWidth);
      for (size_t t = 0; t < kExecWidth; ++t) {
        threads.emplace_back(busy_task);
      }
      for (auto& t : threads) t.join();
    }
    spawn_seconds = SecondsSince(start);
  }
  std::printf("pool_batches_per_sec,%.1f\n", kExecBatches / pool_seconds);
  std::printf("spawn_batches_per_sec,%.1f\n", kExecBatches / spawn_seconds);
  std::printf("executor_speedup,%.2f\n", spawn_seconds / pool_seconds);

  // --- EngineHost: bit-identical for any pool size. ----------------------
  // The multi-tenant host shares one pool across tenants; per-tenant
  // output must still be a pure function of (tenant seed, admission
  // order), never of pool width.
  std::vector<std::vector<QueryResponse>> host_runs;
  bool host_ok = true;
  for (size_t pool_size : {size_t{1}, size_t{4}}) {
    EngineHostOptions host_options;
    host_options.num_threads = pool_size;
    EngineHost host(host_options);
    TenantOptions tenant;
    tenant.default_session_budget = 1e9;
    tenant.root_seed = kSeed;
    if (!host.AddTenant("bench", "t0", *policy, *data, tenant).ok()) {
      std::fprintf(stderr, "host: AddTenant failed\n");
      return 1;
    }
    auto responses = host.ServeBatch("bench", "t0", HistogramBatch(16, kEps));
    if (!responses.ok()) {
      std::fprintf(stderr, "host: %s\n",
                   responses.status().ToString().c_str());
      return 1;
    }
    host_runs.push_back(std::move(*responses));
  }
  for (const QueryResponse& r : host_runs[0]) host_ok &= r.status.ok();
  host_ok = host_ok && Identical(host_runs[0], host_runs[1]);
  std::printf("host_determinism_pool_1_vs_4,%s\n",
              host_ok ? "PASS" : "FAIL");

  // --- First batch on a fresh engine. -----------------------------------
  // Every query reads the complete histogram, which ReleaseEngine::Create
  // counts once. The timer starts before Create, so first_batch_qps pays
  // exactly one pass over the rows plus the batch. An unconstrained
  // policy (a closed-form sensitivity, and a warm shared
  // SensitivityCache removes even that) isolates that pass plus the
  // batch's mechanism work. Same root seed + same admission order -> two
  // fresh engines serve bit-identical batches; that is checked, not
  // assumed.
  constexpr size_t kScanRows = 1 << 19;  // 512k rows, domain stays 2048
  constexpr size_t kScanQueries = 64;
  auto scan_policy = Policy::Create(
      *grid, std::make_shared<const FullGraph>((*grid)->size()));
  if (!scan_policy.ok()) {
    std::fprintf(stderr, "scan policy: %s\n",
                 scan_policy.status().ToString().c_str());
    return 1;
  }
  Random scan_rng(kSeed);
  auto scan_data = MakeData(scan_policy->domain_ptr(), kScanRows, scan_rng);
  if (!scan_data.ok()) {
    std::fprintf(stderr, "scan data: %s\n",
                 scan_data.status().ToString().c_str());
    return 1;
  }
  auto scan_cache = std::make_shared<SensitivityCache>(64);
  ReleaseEngineOptions scan_opts;
  scan_opts.root_seed = kSeed;
  scan_opts.default_session_budget = 1e9;
  scan_opts.shared_cache = scan_cache;
  {
    // Warm the shared sensitivity cache only; the measured engines below
    // are fresh, so each one counts h(D) itself.
    auto warm_engine =
        ReleaseEngine::Create(*scan_policy, *scan_data, scan_opts);
    if (!warm_engine.ok()) {
      std::fprintf(stderr, "scan engine: %s\n",
                   warm_engine.status().ToString().c_str());
      return 1;
    }
    (void)(*warm_engine)->ServeBatch(HistogramBatch(1, kEps));
  }
  double first_batch_qps = 0.0;
  std::vector<std::vector<QueryResponse>> first_batch_runs;
  for (size_t run = 0; run < 2; ++run) {
    Dataset rows = *scan_data;  // copied outside the timed region
    const auto start = Clock::now();
    auto e = ReleaseEngine::Create(*scan_policy, std::move(rows), scan_opts);
    if (!e.ok()) {
      std::fprintf(stderr, "scan engine: %s\n",
                   e.status().ToString().c_str());
      return 1;
    }
    auto responses = (*e)->ServeBatch(HistogramBatch(kScanQueries, kEps));
    const double seconds = SecondsSince(start);
    for (const QueryResponse& r : responses) {
      if (!r.status.ok()) {
        std::fprintf(stderr, "first batch release: %s\n",
                     r.status.ToString().c_str());
        return 1;
      }
    }
    if (run == 0) first_batch_qps = kScanQueries / seconds;
    first_batch_runs.push_back(std::move(responses));
  }
  const bool first_batch_identity =
      Identical(first_batch_runs[0], first_batch_runs[1]);
  std::printf("first_batch_qps,%.3f\n", first_batch_qps);
  std::printf("first_batch_identity,%s\n",
              first_batch_identity ? "PASS" : "FAIL");

  // --- Spatial & ordered hierarchical ops. -------------------------------
  // Measured the same way the first-batch section is: warm shared
  // SensitivityCache, one batch per engine, and a bit-identity check
  // across two fresh engines with the same root seed (each op derives
  // per-query noise from (seed, admission order), so the transcripts
  // must match exactly).
  constexpr size_t kOpQueries = 64;
  // quadtree reuses the 2-attribute first-batch workload: the 4 x 512 domain
  // resolves at depth 9 (a ~350k-node tree); each release counts and
  // noises only the rectangle's canonical nodes, each noised node's draw
  // computed in O(1) from its position in the tree.
  double quadtree_qps = 0.0;
  bool quadtree_identity = true;
  {
    const std::vector<std::pair<std::string, std::string>> rect = {
        {"x0", "1"}, {"x1", "3"}, {"y0", "32"}, {"y1", "317"}};
    std::vector<std::vector<QueryResponse>> runs;
    for (size_t run = 0; run < 2; ++run) {
      auto e = ReleaseEngine::Create(*scan_policy, *scan_data, scan_opts);
      if (!e.ok()) {
        std::fprintf(stderr, "quadtree engine: %s\n",
                     e.status().ToString().c_str());
        return 1;
      }
      const auto start = Clock::now();
      auto responses =
          (*e)->ServeBatch(OpBatch("quadtree", kOpQueries, kEps, rect));
      const double seconds = SecondsSince(start);
      for (const QueryResponse& r : responses) {
        if (!r.status.ok()) {
          std::fprintf(stderr, "quadtree release: %s\n",
                       r.status.ToString().c_str());
          return 1;
        }
      }
      if (run == 0) quadtree_qps = kOpQueries / seconds;
      runs.push_back(std::move(responses));
    }
    quadtree_identity = Identical(runs[0], runs[1]);
  }
  std::printf("quadtree_qps,%.3f\n", quadtree_qps);
  std::printf("quadtree_identity,%s\n",
              quadtree_identity ? "PASS" : "FAIL");

  // hier_range needs a 1-D ordered tenant: Line(2048) under a line
  // graph, same row count as the scan workload.
  double hier_range_qps = 0.0;
  bool hier_range_identity = true;
  {
    auto ordered_policy = [&]() -> StatusOr<Policy> {
      BLOWFISH_ASSIGN_OR_RETURN(Domain dom, Domain::Line(2048));
      auto domain = std::make_shared<const Domain>(std::move(dom));
      auto graph = std::make_shared<const LineGraph>(domain->size());
      return Policy::Create(domain, graph);
    }();
    if (!ordered_policy.ok()) {
      std::fprintf(stderr, "ordered policy: %s\n",
                   ordered_policy.status().ToString().c_str());
      return 1;
    }
    Random ordered_rng(kSeed);
    auto ordered_data =
        MakeData(ordered_policy->domain_ptr(), kScanRows, ordered_rng);
    if (!ordered_data.ok()) {
      std::fprintf(stderr, "ordered data: %s\n",
                   ordered_data.status().ToString().c_str());
      return 1;
    }
    const std::vector<std::pair<std::string, std::string>> range = {
        {"lo", "256"}, {"hi", "1791"}};
    std::vector<std::vector<QueryResponse>> runs;
    for (size_t run = 0; run < 2; ++run) {
      auto e =
          ReleaseEngine::Create(*ordered_policy, *ordered_data, scan_opts);
      if (!e.ok()) {
        std::fprintf(stderr, "ordered engine: %s\n",
                     e.status().ToString().c_str());
        return 1;
      }
      const auto start = Clock::now();
      auto responses =
          (*e)->ServeBatch(OpBatch("hier_range", kOpQueries, kEps, range));
      const double seconds = SecondsSince(start);
      for (const QueryResponse& r : responses) {
        if (!r.status.ok()) {
          std::fprintf(stderr, "hier_range release: %s\n",
                       r.status.ToString().c_str());
          return 1;
        }
      }
      if (run == 0) hier_range_qps = kOpQueries / seconds;
      runs.push_back(std::move(responses));
    }
    hier_range_identity = Identical(runs[0], runs[1]);
  }
  std::printf("hier_range_qps,%.3f\n", hier_range_qps);
  std::printf("hier_range_identity,%s\n",
              hier_range_identity ? "PASS" : "FAIL");

  // --- JSON artifact (the tracked-baseline format). ----------------------
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"engine_throughput\",\n");
  std::fprintf(json,
               "  \"config\": {\"domain\": %llu, \"rows\": %zu, \"eps\": "
               "%g, \"cold_queries\": %zu, \"warm_queries\": %zu, "
               "\"first_batch_rows\": %zu, \"first_batch_queries\": %zu, "
               "\"seed\": %llu},\n",
               static_cast<unsigned long long>(policy->domain().size()),
               data->size(), kEps, kColdQueries, kWarmQueries, kScanRows,
               kScanQueries, static_cast<unsigned long long>(kSeed));
  std::fprintf(json, "  \"cold_qps\": %.3f,\n", cold_qps);
  std::fprintf(json, "  \"warm_qps\": %.3f,\n", warm_qps);
  std::fprintf(json, "  \"speedup_warm_over_cold\": %.1f,\n", speedup);
  std::fprintf(json, "  \"warm_qps_by_pool_size\": [\n");
  for (size_t i = 0; i < pool_points.size(); ++i) {
    std::fprintf(json,
                 "    {\"pool_size\": %zu, \"warm_qps\": %.3f}%s\n",
                 pool_points[i].pool_size, pool_points[i].warm_qps,
                 i + 1 < pool_points.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"executor\": {\"pool_batches_per_sec\": %.1f, "
               "\"spawn_batches_per_sec\": %.1f, \"speedup\": %.2f},\n",
               kExecBatches / pool_seconds, kExecBatches / spawn_seconds,
               spawn_seconds / pool_seconds);
  std::fprintf(json, "  \"first_batch_qps\": %.3f,\n", first_batch_qps);
  std::fprintf(json,
               "  \"ops\": {\"queries\": %zu, \"quadtree_qps\": %.3f, "
               "\"hier_range_qps\": %.3f},\n",
               kOpQueries, quadtree_qps, hier_range_qps);
  // The gate block tells scripts/check_bench_regression.py what to
  // gate: each listed metric (a dotted path into this file) against the
  // baseline, and each listed check true in both files.
  const char* gated_metrics[] = {"warm_qps", "first_batch_qps",
                                 "ops.quadtree_qps", "ops.hier_range_qps"};
  const std::pair<const char*, bool> checks[] = {
      {"speedup_ge_5x", speedup >= 5.0},
      {"determinism_threads_1_vs_4", deterministic},
      {"host_determinism_pool_1_vs_4", host_ok},
      {"first_batch_identity", first_batch_identity},
      {"quadtree_identity", quadtree_identity},
      {"hier_range_identity", hier_range_identity},
  };
  bool all_checks = true;
  std::string checks_json;
  std::string gate_checks;
  for (const auto& [name, ok] : checks) {
    all_checks &= ok;
    const char* sep = checks_json.empty() ? "" : ", ";
    checks_json += sep + std::string("\"") + name + "\": " +
                   (ok ? "true" : "false");
    gate_checks += sep + std::string("\"") + name + "\"";
  }
  std::string gate_metrics;
  for (const char* metric : gated_metrics) {
    gate_metrics += std::string(gate_metrics.empty() ? "" : ", ") + "\"" +
                    metric + "\"";
  }
  std::fprintf(json, "  \"checks\": {%s},\n", checks_json.c_str());
  std::fprintf(json, "  \"gate\": {\"metrics\": [%s], \"checks\": [%s]}\n",
               gate_metrics.c_str(), gate_checks.c_str());
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("# wrote %s\n", json_path.c_str());

  return all_checks ? 0 : 1;
}

}  // namespace
}  // namespace blowfish

int main(int argc, char** argv) {
  std::string json_path = "BENCH_engine_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  return blowfish::Run(json_path);
}
