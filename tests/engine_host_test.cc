#include "server/engine_host.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/constraints.h"
#include "core/policy.h"
#include "core/secret_graph.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "util/random.h"

namespace blowfish {
namespace {

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

Dataset MakeData(const std::shared_ptr<const Domain>& domain, size_t n,
                 uint64_t seed = 7) {
  Random rng(seed);
  std::vector<ValueIndex> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(static_cast<ValueIndex>(
        rng.UniformInt(0, static_cast<int64_t>(domain->size()) - 1)));
  }
  return Dataset::Create(domain, std::move(tuples)).value();
}

QueryRequest HistogramRequest(double eps) {
  return MakeQueryRequest("histogram", eps).value();
}

/// Parks one of the host's pool workers until the returned gate is
/// opened (set_value).
std::promise<void> ParkWorker(EngineHost& host) {
  std::promise<void> gate;
  host.pool().Post([opened = gate.get_future().share()]() { opened.wait(); });
  return gate;
}

/// Blocks until `pool` runs posted tasks inline, i.e. its Shutdown() has
/// begun. Probes posted before that run later on a worker, harmlessly.
void WaitUntilPostRunsInline(ThreadPool& pool) {
  const std::thread::id self = std::this_thread::get_id();
  while (true) {
    auto ran_here = std::make_shared<std::atomic<bool>>(false);
    pool.Post([ran_here, self]() {
      if (std::this_thread::get_id() == self) ran_here->store(true);
    });
    if (ran_here->load()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(EngineHostTest, ServesARegisteredTenant) {
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHost host;
  ASSERT_TRUE(host.AddTenant("p", "d", policy, MakeData(domain, 200)).ok());
  auto responses = host.ServeBatch("p", "d", {HistogramRequest(0.5)});
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 1u);
  EXPECT_TRUE((*responses)[0].status.ok());
  EXPECT_EQ((*responses)[0].values.size(), 32u);
}

TEST(EngineHostTest, UnknownTenantReturnsNotFound) {
  EngineHost host;
  auto responses = host.ServeBatch("nope", "nada", {HistogramRequest(0.5)});
  EXPECT_EQ(responses.status().code(), StatusCode::kNotFound);
}

TEST(EngineHostTest, DuplicateTenantRefused) {
  auto domain = LineDomain(16);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHost host;
  ASSERT_TRUE(host.AddTenant("p", "d", policy, MakeData(domain, 50)).ok());
  EXPECT_EQ(host.AddTenant("p", "d", policy, MakeData(domain, 50)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(host.HasTenant("p", "d"));
  EXPECT_FALSE(host.HasTenant("p", "other"));
  EXPECT_EQ(host.Tenants().size(), 1u);
}

/// Asserts that AddTenant refuses `data` under `policy` with
/// InvalidArgument and registers nothing: a later batch is NotFound.
void ExpectAddTenantRefused(const Policy& policy, Dataset data,
                            TenantOptions options = {}) {
  EngineHost host;
  EXPECT_EQ(host.AddTenant("p", "d", policy, std::move(data), options).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(host.HasTenant("p", "d"));
  EXPECT_TRUE(host.Tenants().empty());
  auto responses = host.ServeBatch("p", "d", {HistogramRequest(0.5)});
  EXPECT_EQ(responses.status().code(), StatusCode::kNotFound);
}

TEST(EngineHostTest, ConstructionErrorRefusesAddTenant) {
  // Policy and dataset domains disagree: ReleaseEngine::Create refuses
  // the pair, so the tenant never exists.
  auto policy_domain = LineDomain(32);
  auto data_domain = std::make_shared<const Domain>(
      Domain::Line(32, 2.0, "other").value());
  ExpectAddTenantRefused(Policy::FullDomain(policy_domain).value(),
                         MakeData(data_domain, 50));
}

TEST(EngineHostTest, TenantBudgetsAreIsolated) {
  auto domain = LineDomain(16);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHost host;
  TenantOptions small;
  small.default_session_budget = 0.5;
  ASSERT_TRUE(
      host.AddTenant("p", "a", policy, MakeData(domain, 100), small).ok());
  ASSERT_TRUE(
      host.AddTenant("p", "b", policy, MakeData(domain, 100), small).ok());

  // Tenant a spends its whole budget...
  auto first = host.ServeBatch("p", "a", {HistogramRequest(0.5)});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)[0].status.ok()) << (*first)[0].status.ToString();
  auto refused = host.ServeBatch("p", "a", {HistogramRequest(0.5)});
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ((*refused)[0].status.code(), StatusCode::kResourceExhausted);

  // ...and tenant b is untouched.
  auto fresh = host.ServeBatch("p", "b", {HistogramRequest(0.5)});
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)[0].status.ok()) << (*fresh)[0].status.ToString();
}

TEST(EngineHostTest, TenantsSharingAPolicyShareSensitivityWork) {
  // Two tenants, same policy shape, different datasets: S(f, P) does not
  // depend on the data, so the second tenant's first query hits the
  // process-wide cache.
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHost host;
  ASSERT_TRUE(
      host.AddTenant("p", "a", policy, MakeData(domain, 100, 1)).ok());
  ASSERT_TRUE(
      host.AddTenant("p", "b", policy, MakeData(domain, 100, 2)).ok());
  auto first = host.ServeBatch("p", "a", {HistogramRequest(0.2)});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE((*first)[0].cache_hit);
  auto second = host.ServeBatch("p", "b", {HistogramRequest(0.2)});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*second)[0].cache_hit);
  const SensitivityCache::Stats stats = host.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

/// S(f, P) of a one-request batch on `policy`, from a fresh engine with
/// its own cache — the reference a shared-cache tenant must match.
double FreshSensitivity(const Policy& policy, const Dataset& data,
                        const QueryRequest& request) {
  auto engine = ReleaseEngine::Create(policy, data).value();
  const std::vector<QueryResponse> responses = engine->ServeBatch({request});
  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  return responses[0].sensitivity;
}

/// Serves `request` on tenants "a" then "b" of one host (one shared
/// sensitivity cache) and checks each against its own fresh engine. The
/// two policies must have different sensitivities, or the probe could
/// not tell a shared entry from a correct one.
void ExpectNoSharedEntry(const Policy& a, const Policy& b,
                         const Dataset& data, const QueryRequest& request) {
  const double want_a = FreshSensitivity(a, data, request);
  const double want_b = FreshSensitivity(b, data, request);
  ASSERT_NE(want_a, want_b);
  EngineHost host;
  ASSERT_TRUE(host.AddTenant("p", "a", a, data).ok());
  ASSERT_TRUE(host.AddTenant("p", "b", b, data).ok());
  auto first = host.ServeBatch("p", "a", {request});
  auto second = host.ServeBatch("p", "b", {request});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ((*first)[0].sensitivity, want_a);
  EXPECT_EQ((*second)[0].sensitivity, want_b);
  EXPECT_FALSE((*second)[0].cache_hit);
}

TEST(EngineHostTest, SameSizedGridPartitionsDoNotShareSensitivity) {
  // {4,4} and {2,8} cells of a 400x300 grid are both 16-cell
  // partitions; k-means' S(f, P) follows the cell diameter (346 vs 472),
  // so a cache entry keyed by the cell count alone under-noises
  // whichever tenant is served second. Both orders.
  auto domain = std::make_shared<const Domain>(
      Domain::Create({Attribute{"x", 400, 1.0}, Attribute{"y", 300, 1.0}})
          .value());
  auto grid = [&domain](std::vector<uint64_t> cells) {
    auto part = PartitionGraph::UniformGrid(domain, std::move(cells)).value();
    return Policy::Create(domain,
                          std::shared_ptr<const SecretGraph>(part.release()))
        .value();
  };
  const Policy square = grid({4, 4});
  const Policy strips = grid({2, 8});
  const Dataset data = MakeData(domain, 200);
  const QueryRequest kmeans =
      MakeQueryRequest("kmeans", 0.5, {{"k", "2"}, {"iters", "2"}}).value();
  {
    SCOPED_TRACE("{4,4} first");
    ExpectNoSharedEntry(square, strips, data, kmeans);
  }
  {
    SCOPED_TRACE("{2,8} first");
    ExpectNoSharedEntry(strips, square, data, kmeans);
  }
}

TEST(EngineHostTest, SameNamedPinnedConstraintsDoNotShareSensitivity) {
  // Two tenants pin a count constraint under one name, "c", with
  // different predicates: x < 4 is a union of G^P cells, x < 2 splits
  // one, which forces compensating moves and a larger histogram bound.
  auto domain = LineDomain(16);
  const Dataset data = MakeData(domain, 200);
  auto pinned = [&](uint64_t bound) {
    auto part = PartitionGraph::UniformGrid(domain, {4}).value();
    CountQuery c("c", [bound](ValueIndex x) { return x < bound; });
    const uint64_t answer = c.Evaluate(data);
    ConstraintSet cs;
    cs.AddWithAnswer(std::move(c), answer);
    return Policy::Create(domain,
                          std::shared_ptr<const SecretGraph>(part.release()),
                          std::move(cs))
        .value();
  };
  const Policy aligned = pinned(4);
  const Policy split = pinned(2);
  {
    SCOPED_TRACE("aligned first");
    ExpectNoSharedEntry(aligned, split, data, HistogramRequest(0.5));
  }
  {
    SCOPED_TRACE("split first");
    ExpectNoSharedEntry(split, aligned, data, HistogramRequest(0.5));
  }
}

TEST(EngineHostTest, BatchOutputBitIdenticalForAnyPoolSize) {
  auto domain = LineDomain(64);
  Policy policy = Policy::Line(domain).value();

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(HistogramRequest(0.2));
  batch.push_back(
      MakeQueryRequest("range", 0.1, {{"lo", "5"}, {"hi", "50"}}).value());

  std::vector<std::vector<QueryResponse>> runs;
  for (size_t pool_size : {size_t{0}, size_t{1}, size_t{8}}) {
    EngineHostOptions options;
    options.num_threads = pool_size;
    EngineHost host(options);
    TenantOptions tenant;
    tenant.default_session_budget = 100.0;
    ASSERT_TRUE(host.AddTenant("p", "d", policy, MakeData(domain, 400),
                               tenant)
                    .ok());
    auto responses = host.ServeBatch("p", "d", batch);
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    runs.push_back(std::move(*responses));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[0].size(), runs[r].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      ASSERT_TRUE(runs[0][i].status.ok());
      ASSERT_TRUE(runs[r][i].status.ok());
      EXPECT_EQ(runs[0][i].values, runs[r][i].values)
          << "pool size run " << r << ", query " << i;
    }
  }
}

TEST(EngineHostTest, ExplicitTenantSeedOverridesDerivedSeed) {
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 200);

  // Same explicit seed in two differently-keyed tenants: same noise.
  EngineHost host;
  TenantOptions seeded;
  seeded.root_seed = 123;
  ASSERT_TRUE(host.AddTenant("p", "x", policy, data, seeded).ok());
  ASSERT_TRUE(host.AddTenant("p", "y", policy, data, seeded).ok());
  auto x = host.ServeBatch("p", "x", {HistogramRequest(0.5)});
  auto y = host.ServeBatch("p", "y", {HistogramRequest(0.5)});
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  EXPECT_EQ((*x)[0].values, (*y)[0].values);

  // Derived seeds differ by key: distinct tenants draw distinct noise.
  EngineHost host2;
  ASSERT_TRUE(host2.AddTenant("p", "x", policy, data).ok());
  ASSERT_TRUE(host2.AddTenant("p", "y", policy, data).ok());
  auto dx = host2.ServeBatch("p", "x", {HistogramRequest(0.5)});
  auto dy = host2.ServeBatch("p", "y", {HistogramRequest(0.5)});
  ASSERT_TRUE(dx.ok());
  ASSERT_TRUE(dy.ok());
  EXPECT_NE((*dx)[0].values, (*dy)[0].values);
}

TEST(EngineHostTest, ManyAsyncBatchesInterleaveAndAllComplete) {
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHostOptions options;
  options.num_threads = 4;
  EngineHost host(options);
  constexpr int kTenants = 6;
  constexpr int kBatchesPerTenant = 5;
  TenantOptions tenant;
  tenant.default_session_budget = 1e6;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(host.AddTenant("p", "t" + std::to_string(t), policy,
                               MakeData(domain, 100, 10 + t), tenant)
                    .ok());
  }
  // All batches in flight before any result is collected.
  std::vector<std::future<StatusOr<std::vector<QueryResponse>>>> pending;
  for (int b = 0; b < kBatchesPerTenant; ++b) {
    for (int t = 0; t < kTenants; ++t) {
      pending.push_back(host.SubmitBatch(
          "p", "t" + std::to_string(t),
          {HistogramRequest(0.1), HistogramRequest(0.1)}));
    }
  }
  for (auto& f : pending) {
    auto responses = f.get();
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    for (const QueryResponse& resp : *responses) {
      EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    }
  }
}

TEST(EngineHostTest, ServeBatchFromOwnPoolWorkerDoesNotDeadlock) {
  // A task running on the host's single pool worker calls the
  // synchronous ServeBatch: it must run inline rather than block on a
  // batch queued behind itself.
  auto domain = LineDomain(16);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHostOptions options;
  options.num_threads = 1;
  EngineHost host(options);
  ASSERT_TRUE(host.AddTenant("p", "d", policy, MakeData(domain, 100)).ok());
  auto nested = host.pool().Submit([&host]() {
    return host.ServeBatch("p", "d", {HistogramRequest(0.5)});
  });
  ASSERT_EQ(nested.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "nested ServeBatch deadlocked on the pool";
  auto responses = nested.get();
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  EXPECT_TRUE((*responses)[0].status.ok());
}

TEST(EngineHostTest, StrandStartsTenantsInTurnsOnOneWorker) {
  // Tenant a's three batches queue on its strand before tenant b's one;
  // the only worker then serves a batch per tenant per turn. With one
  // worker, completion order is start order.
  auto domain = LineDomain(8);
  Policy policy = Policy::FullDomain(domain).value();
  obs::MetricsRegistry registry;
  EngineHostOptions options;
  options.num_threads = 1;
  options.metrics = &registry;
  EngineHost host(options);
  ASSERT_TRUE(host.AddTenant("p", "a", policy, MakeData(domain, 50)).ok());
  ASSERT_TRUE(host.AddTenant("p", "b", policy, MakeData(domain, 50)).ok());

  std::mutex mu;
  std::vector<std::string> order;
  auto submit = [&](const std::string& tenant, const std::string& name) {
    return host.SubmitBatch("p", tenant, {HistogramRequest(0.1)},
                            [&mu, &order, name](size_t,
                                                const QueryResponse&) {
                              std::lock_guard<std::mutex> lock(mu);
                              order.push_back(name);
                            });
  };
  std::promise<void> gate = ParkWorker(host);
  std::vector<std::future<StatusOr<std::vector<QueryResponse>>>> pending;
  pending.push_back(submit("a", "A1"));
  pending.push_back(submit("a", "A2"));
  pending.push_back(submit("a", "A3"));
  pending.push_back(submit("b", "B1"));
  obs::Gauge* queued = registry.GetGauge("host_batches_queued");
  EXPECT_EQ(queued->Value(), 4);  // submitted, none started
  gate.set_value();
  for (auto& f : pending) {
    auto responses = f.get();
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    EXPECT_TRUE((*responses)[0].status.ok());
  }
  EXPECT_EQ(order, (std::vector<std::string>{"A1", "B1", "A2", "A3"}));
  EXPECT_EQ(queued->Value(), 0);
  EXPECT_EQ(registry.GetHistogram("host_queue_wait_us")->Aggregate().count,
            4u);
}

TEST(EngineHostTest, QueuedBatchNeverHoldsAWorker) {
  // A1 blocks in its completion callback on the first of two workers.
  // A2 must wait on tenant a's strand, not on a worker, so tenant b's
  // B1 still finds the second one.
  auto domain = LineDomain(8);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHostOptions options;
  options.num_threads = 2;
  EngineHost host(options);
  ASSERT_TRUE(host.AddTenant("p", "a", policy, MakeData(domain, 50)).ok());
  ASSERT_TRUE(host.AddTenant("p", "b", policy, MakeData(domain, 50)).ok());

  std::promise<void> a1_running;
  std::promise<void> release_a1;
  auto a1 = host.SubmitBatch(
      "p", "a", {HistogramRequest(0.1)},
      [&a1_running, release = release_a1.get_future().share()](
          size_t, const QueryResponse&) {
        a1_running.set_value();
        release.wait();
      });
  a1_running.get_future().wait();
  auto a2 = host.SubmitBatch("p", "a", {HistogramRequest(0.1)});
  auto b1 = host.SubmitBatch("p", "b", {HistogramRequest(0.1)});
  const bool b1_done = b1.wait_for(std::chrono::seconds(10)) ==
                       std::future_status::ready;
  release_a1.set_value();
  EXPECT_TRUE(b1_done) << "B1 waited for a worker held by tenant a";
  for (auto* f : {&a1, &a2, &b1}) {
    auto responses = f->get();
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    EXPECT_TRUE((*responses)[0].status.ok());
  }
}

TEST(EngineHostTest, DeepBacklogDrainsInALoopAfterShutdown) {
  // 20,000 batches queue on one strand behind the parked only worker,
  // then the pool shuts down, so every re-post of the strand would run
  // inline. The strand must loop rather than recurse: a recursive drain
  // this deep overflows the stack under ASan.
  auto domain = LineDomain(4);
  Policy policy = Policy::FullDomain(domain).value();
  obs::MetricsRegistry registry;
  EngineHostOptions options;
  options.num_threads = 1;
  options.metrics = &registry;
  EngineHost host(options);
  TenantOptions tenant;
  tenant.default_session_budget = 1e9;
  ASSERT_TRUE(
      host.AddTenant("p", "d", policy, MakeData(domain, 20), tenant).ok());

  std::promise<void> gate = ParkWorker(host);
  constexpr size_t kBatches = 20000;
  std::vector<std::future<StatusOr<std::vector<QueryResponse>>>> pending;
  pending.reserve(kBatches);
  for (size_t i = 0; i < kBatches; ++i) {
    pending.push_back(host.SubmitBatch("p", "d", {HistogramRequest(0.001)}));
  }
  std::thread stopper([&host]() { host.Shutdown(); });
  WaitUntilPostRunsInline(host.pool());
  gate.set_value();
  stopper.join();
  size_t served = 0;
  for (auto& f : pending) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    auto responses = f.get();
    if (responses.ok() && (*responses)[0].status.ok()) ++served;
  }
  EXPECT_EQ(served, kBatches);
  EXPECT_EQ(registry.GetGauge("host_batches_queued")->Value(), 0);
}

TEST(EngineHostTest, NonFiniteTenantBudgetRefusedAtAddTenant) {
  // A NaN budget would make every admission check pass (spent + eps >
  // NaN is never true); engine construction must refuse it.
  auto domain = LineDomain(16);
  TenantOptions bad;
  bad.default_session_budget = std::nan("");
  ExpectAddTenantRefused(Policy::FullDomain(domain).value(),
                         MakeData(domain, 50), bad);
}

}  // namespace
}  // namespace blowfish
