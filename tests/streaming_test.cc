// Streaming per-query completion: the callback contract of
// ReleaseEngine::ServeBatch / EngineHost::SubmitBatch.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/policy.h"
#include "engine/batch_request.h"
#include "engine/ops/query_op.h"
#include "engine/release_engine.h"
#include "server/engine_host.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 1234;

/// A query kind that fails in Execute, after admission. Registered
/// only in this test binary: its charge must be refunded.
class ExecuteFailOp final : public QueryOp {
 public:
  std::string KindName() const override { return "execute_fail"; }
  Status Parse(KeyValueBag&) override { return Status::OK(); }
  StatusOr<std::string> SensitivityShape() const override {
    return std::string("execute_fail");
  }
  StatusOr<double> ComputeSensitivity(
      const Policy&, const SensitivityEnv&) const override {
    return 1.0;
  }
  StatusOr<std::vector<double>> Execute(const QueryExecContext&,
                                        Random) const override {
    return Status::Internal("injected failure after admission");
  }
};

const QueryOpRegistrar kFailRegistrar{
    "execute_fail", [] { return std::make_unique<ExecuteFailOp>(); }};

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

/// A mixed batch: successes, an admission refusal (eps = 0 on positive
/// sensitivity), and an execution-time failure.
std::vector<QueryRequest> MixedBatch() {
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(MakeQueryRequest("histogram", 0.1).value());
  }
  batch.push_back(
      MakeQueryRequest("range", 0.2, {{"lo", "5"}, {"hi", "50"}}).value());
  batch.push_back(MakeQueryRequest("histogram", 0.0).value());  // refused
  batch.push_back(  // fails at execution -> refunded
      MakeQueryRequest("execute_fail", 0.2).value());
  batch.push_back(
      MakeQueryRequest("quantiles", 0.2, {{"qs", "0.25,0.75"}}).value());
  return batch;
}

/// Collects callbacks; the engine serializes them, but assert under a
/// mutex anyway so a contract violation shows up as a test failure, not
/// a data race.
struct Collector {
  std::mutex mu;
  std::map<size_t, QueryResponse> seen;
  std::vector<size_t> order;

  QueryCompletionCallback Callback() {
    return [this](size_t index, const QueryResponse& response) {
      std::lock_guard<std::mutex> lock(mu);
      ASSERT_TRUE(seen.emplace(index, response).second)
          << "query " << index << " completed twice";
      order.push_back(index);
    };
  }
};

TEST(StreamingTest, PayloadsBitIdenticalToNonStreamingForAnyPoolSize) {
  auto domain = LineDomain(64);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 400);
  const std::vector<QueryRequest> batch = MixedBatch();

  // Non-streaming reference (single-threaded).
  ReleaseEngineOptions reference_options;
  reference_options.root_seed = kSeed;
  reference_options.default_session_budget = 100.0;
  auto reference_engine =
      ReleaseEngine::Create(policy, data, reference_options);
  ASSERT_TRUE(reference_engine.ok());
  const std::vector<QueryResponse> reference =
      (*reference_engine)->ServeBatch(batch);

  for (size_t pool_size : {size_t{0}, size_t{1}, size_t{8}}) {
    auto pool = std::make_shared<ThreadPool>(pool_size);
    ReleaseEngineOptions options;
    options.root_seed = kSeed;
    options.default_session_budget = 100.0;
    options.pool = pool;
    auto engine = ReleaseEngine::Create(policy, data, options);
    ASSERT_TRUE(engine.ok());
    Collector collector;
    auto returned = (*engine)->ServeBatch(batch, collector.Callback());

    // Exactly one completion per query, streamed and returned payloads
    // identical, and the whole thing bit-identical to the non-streaming
    // single-threaded run.
    ASSERT_EQ(collector.seen.size(), batch.size())
        << "pool size " << pool_size;
    ASSERT_EQ(returned.size(), reference.size());
    for (size_t i = 0; i < returned.size(); ++i) {
      const QueryResponse& streamed = collector.seen.at(i);
      EXPECT_EQ(streamed.values, returned[i].values)
          << "pool " << pool_size << " query " << i;
      EXPECT_EQ(streamed.status.code(), returned[i].status.code());
      EXPECT_EQ(returned[i].values, reference[i].values)
          << "pool " << pool_size << " query " << i;
      EXPECT_EQ(returned[i].status.code(), reference[i].status.code());
      EXPECT_DOUBLE_EQ(returned[i].sensitivity, reference[i].sensitivity);
    }
  }
}

TEST(StreamingTest, ZeroWorkerPoolStreamsInRequestOrder) {
  // With no pool workers the submitting thread executes everything, so
  // completion order is fully deterministic: refused queries first (in
  // request order), then admitted queries in request order.
  auto domain = LineDomain(32);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 200);
  auto pool = std::make_shared<ThreadPool>(0);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 100.0;
  options.pool = pool;
  auto engine = ReleaseEngine::Create(policy, data, options);
  ASSERT_TRUE(engine.ok());

  std::vector<QueryRequest> batch;
  batch.push_back(MakeQueryRequest("histogram", 0.1).value());  // admitted
  batch.push_back(MakeQueryRequest("histogram", 0.0).value());  // refused
  batch.push_back(MakeQueryRequest("histogram", 0.1).value());  // admitted
  Collector collector;
  (void)(*engine)->ServeBatch(batch, collector.Callback());
  EXPECT_EQ(collector.order, (std::vector<size_t>{1, 0, 2}));
}

TEST(StreamingTest, CallbackSeesPreRefundReceipt) {
  // The callback fires the moment execution finishes; the end-of-batch
  // refund pass has not run yet, so a query that fails in Execute
  // streams with its charge still in place and is refunded only in the
  // returned vector. (Streams must not wait on the whole batch — that
  // is the point of streaming.)
  auto domain = LineDomain(32);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 200);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 1.0;
  auto engine = ReleaseEngine::Create(policy, data, options);
  ASSERT_TRUE(engine.ok());

  Collector collector;
  auto returned = (*engine)->ServeBatch(
      {MakeQueryRequest("execute_fail", 0.3).value()}, collector.Callback());
  ASSERT_FALSE(returned[0].status.ok());
  EXPECT_TRUE(returned[0].receipt.refunded);
  const QueryResponse& streamed = collector.seen.at(0);
  EXPECT_FALSE(streamed.receipt.refunded);
  EXPECT_TRUE(streamed.values.empty());  // hygiene applies before streaming
}

TEST(StreamingTest, HostSubmitBatchStreamsAheadOfTheFuture) {
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHostOptions host_options;
  host_options.num_threads = 4;
  EngineHost host(host_options);
  TenantOptions tenant;
  tenant.default_session_budget = 100.0;
  ASSERT_TRUE(
      host.AddTenant("p", "d", policy, MakeData(domain, 200), tenant).ok());

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(MakeQueryRequest("histogram", 0.1).value());
  }
  Collector collector;
  auto future = host.SubmitBatch("p", "d", batch, collector.Callback());
  auto responses = future.get();
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  // By the time the future resolves, every query has streamed, with the
  // exact payload the future carries.
  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.seen.size(), batch.size());
  for (size_t i = 0; i < responses->size(); ++i) {
    EXPECT_EQ(collector.seen.at(i).values, (*responses)[i].values);
  }
}

TEST(StreamingTest, NoCallbackForBatchThatNeverReachesTheEngine) {
  EngineHost host;
  Collector collector;
  auto future = host.SubmitBatch(
      "ghost", "tenant", {MakeQueryRequest("histogram", 0.1).value()},
      collector.Callback());
  auto responses = future.get();
  EXPECT_EQ(responses.status().code(), StatusCode::kNotFound);
  std::lock_guard<std::mutex> lock(collector.mu);
  EXPECT_TRUE(collector.seen.empty());
}

}  // namespace
}  // namespace blowfish
