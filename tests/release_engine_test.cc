#include "engine/release_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "core/secret_graph.h"
#include "engine/batch_request.h"
#include "engine/ops/query_op.h"
#include "mech/laplace.h"
#include "mech/ordered.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 42;

/// A query kind that draws its noise and then fails, after admission.
/// Registered only in this test binary: its charge must be refunded,
/// and nothing it drew may be published.
class FailAfterNoiseOp final : public QueryOp {
 public:
  std::string KindName() const override { return "fail_after_noise"; }
  Status Parse(KeyValueBag&) override { return Status::OK(); }
  StatusOr<std::string> SensitivityShape() const override {
    return std::string("fail_after_noise");
  }
  StatusOr<double> ComputeSensitivity(
      const Policy&, const SensitivityEnv&) const override {
    return 1.0;
  }
  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    (void)rng.Laplace(1.0 / ctx.epsilon);
    return Status::Internal("injected failure after the noise draw");
  }
};

const QueryOpRegistrar kFailRegistrar{
    "fail_after_noise", [] { return std::make_unique<FailAfterNoiseOp>(); }};

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

std::shared_ptr<const Domain> GridDomain(uint64_t m, size_t k) {
  return std::make_shared<const Domain>(Domain::Grid(m, k).value());
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

QueryRequest Request(
    const std::string& kind, double eps,
    const std::vector<std::pair<std::string, std::string>>& kv = {}) {
  auto request = MakeQueryRequest(kind, eps, kv);
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  return std::move(*request);
}

QueryRequest HistogramRequest(double eps) {
  return Request("histogram", eps);
}

std::unique_ptr<ReleaseEngine> MakeEngine(const Policy& policy,
                                          const Dataset& data,
                                          ReleaseEngineOptions options) {
  auto engine = ReleaseEngine::Create(policy, data, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

TEST(ReleaseEngineTest, HistogramMatchesDirectMechanism) {
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 500);
  auto hist = data.CompleteHistogram().value();

  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  auto engine = MakeEngine(policy, data, options);
  auto responses = engine->ServeBatch({HistogramRequest(0.5)});
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 2.0);

  // The engine's first query draws from stream 0 of the root seed; the
  // direct one-shot call with the same forked RNG must be bit-identical.
  Random direct_rng = Random(kSeed).Fork(uint64_t{0});
  auto direct = LaplaceRelease(hist.counts(), 2.0, 0.5, direct_rng);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(responses[0].values, *direct);
}

TEST(ReleaseEngineTest, OrderedFamilyMatchesDirectMechanism) {
  auto domain = LineDomain(64);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 400);
  auto hist = data.CompleteHistogram().value();

  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  auto engine = MakeEngine(policy, data, options);
  QueryRequest range = Request("range", 0.4, {{"lo", "10"}, {"hi", "40"}});
  auto responses = engine->ServeBatch({range});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();

  Random direct_rng = Random(kSeed).Fork(uint64_t{0});
  auto direct = OrderedMechanism(hist, policy, 0.4, direct_rng);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(responses[0].values,
            std::vector<double>{direct->RangeQuery(10, 40).value()});
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 1.0);  // line graph
}

TEST(ReleaseEngineTest, BatchIsDeterministicAcrossThreadCounts) {
  auto domain = LineDomain(64);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 400);

  std::vector<QueryRequest> batch;
  batch.push_back(HistogramRequest(0.3));
  batch.push_back(Request("range", 0.2, {{"lo", "5"}, {"hi", "50"}}));
  batch.push_back(Request("quantiles", 0.2, {{"qs", "0.25,0.5,0.75"}}));
  batch.push_back(Request("cdf", 0.1));
  batch.push_back(Request("kmeans", 0.5, {{"k", "2"}, {"iters", "2"}}));

  std::vector<std::vector<QueryResponse>> runs;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    // n-way parallelism: n - 1 workers plus the submitting thread.
    auto pool = std::make_shared<ThreadPool>(threads - 1);
    ReleaseEngineOptions options;
    options.root_seed = kSeed;
    options.pool = pool;
    options.default_session_budget = 100.0;
    auto engine = MakeEngine(policy, data, options);
    runs.push_back(engine->ServeBatch(batch));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (size_t i = 0; i < runs[0].size(); ++i) {
    ASSERT_TRUE(runs[0][i].status.ok()) << i << ": "
                                        << runs[0][i].status.ToString();
    ASSERT_TRUE(runs[1][i].status.ok()) << i;
    EXPECT_EQ(runs[0][i].values, runs[1][i].values) << "query " << i;
    EXPECT_DOUBLE_EQ(runs[0][i].sensitivity, runs[1][i].sensitivity);
    EXPECT_DOUBLE_EQ(runs[0][i].receipt.charged, runs[1][i].receipt.charged);
  }
}

TEST(ReleaseEngineTest, RepeatedBatchDrawsFreshNoise) {
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 500);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 100.0;
  auto engine = MakeEngine(policy, data, options);
  auto first = engine->ServeBatch({HistogramRequest(0.5)});
  auto second = engine->ServeBatch({HistogramRequest(0.5)});
  ASSERT_TRUE(first[0].status.ok());
  ASSERT_TRUE(second[0].status.ok());
  // Stream ids advance across batches: re-asking the same query must not
  // replay the same noise (that would leak the true answer's noise).
  EXPECT_NE(first[0].values, second[0].values);
}

TEST(ReleaseEngineTest, CachedAndUncachedAnswersAgree) {
  // Constrained policy: sensitivity needs the Thm 8.2 policy-graph bound.
  auto domain = std::make_shared<const Domain>(
      Domain::Create({Attribute{"A1", 2, 1.0}, Attribute{"A2", 2, 1.0},
                      Attribute{"A3", 3, 1.0}})
          .value());
  Dataset data = MakeData(domain, 200);
  ConstraintSet constraints;
  // Pinned from the data: only pinned constraints restrict I_Q and pay
  // the chain bound — an unpinned marginal is semantically inert.
  ASSERT_TRUE(constraints.AddMarginal(domain, Marginal{{0, 1}}, &data).ok());
  auto graph = std::make_shared<const FullGraph>(domain->size());
  Policy policy =
      Policy::Create(domain, graph, std::move(constraints)).value();

  std::vector<QueryRequest> batch(4, HistogramRequest(0.3));
  std::vector<std::vector<QueryResponse>> runs;
  std::vector<SensitivityCache::Stats> stats;
  for (bool cached : {false, true}) {
    ReleaseEngineOptions options;
    options.root_seed = kSeed;
    // A capacity-0 cache stores nothing: every lookup recomputes.
    if (!cached) options.shared_cache = std::make_shared<SensitivityCache>(0);
    options.default_session_budget = 100.0;
    auto engine = MakeEngine(policy, data, options);
    runs.push_back(engine->ServeBatch(batch));
    stats.push_back(engine->cache().stats());
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(runs[0][i].status.ok()) << runs[0][i].status.ToString();
    ASSERT_TRUE(runs[1][i].status.ok());
    // Same answers...
    EXPECT_EQ(runs[0][i].values, runs[1][i].values) << "query " << i;
    EXPECT_DOUBLE_EQ(runs[0][i].sensitivity, runs[1][i].sensitivity);
  }
  // ...but the cached engine computed the bound once, not four times.
  EXPECT_EQ(stats[0].misses, 4u);
  EXPECT_EQ(stats[1].misses, 1u);
  EXPECT_EQ(stats[1].hits, 3u);
  EXPECT_FALSE(runs[1][0].cache_hit);
  EXPECT_TRUE(runs[1][1].cache_hit);
  // Example 8.3: S(h, P) = 8 for the [A1,A2] marginal under G^full.
  EXPECT_DOUBLE_EQ(runs[1][0].sensitivity, 8.0);
}

TEST(ReleaseEngineTest, OverspendRefusedMidBatch) {
  auto domain = LineDomain(16);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 100);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 0.5;
  auto engine = MakeEngine(policy, data, options);
  auto responses = engine->ServeBatch(
      {HistogramRequest(0.4), HistogramRequest(0.4), HistogramRequest(0.1)});
  ASSERT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[1].status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(responses[1].values.empty());
  // Admission is in request order: the refused query spends nothing, so a
  // later query that fits is still served.
  ASSERT_TRUE(responses[2].status.ok());
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.5);
}

TEST(ReleaseEngineTest, NamedSessionsHaveIndependentBudgets) {
  auto domain = LineDomain(16);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 100);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 0.5;
  auto engine = MakeEngine(policy, data, options);
  ASSERT_TRUE(engine->accountant().OpenSession("alice", 2.0).ok());

  QueryRequest alice = Request("histogram", 1.5, {{"session", "alice"}});
  QueryRequest anon = HistogramRequest(1.5);
  auto responses = engine->ServeBatch({alice, anon});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_EQ(responses[0].receipt.session, "alice");
  EXPECT_DOUBLE_EQ(responses[0].receipt.remaining, 0.5);
  // The default session's smaller budget refuses the same query.
  EXPECT_EQ(responses[1].status.code(), StatusCode::kResourceExhausted);
}

TEST(ReleaseEngineTest, ParallelGroupChargedMaxNotSum) {
  auto domain = GridDomain(4, 2);
  Policy policy = Policy::GridPartition(domain, {2, 2}).value();
  Dataset data = MakeData(domain, 300);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 1.0;
  auto engine = MakeEngine(policy, data, options);

  QueryRequest a =
      Request("cell_histogram", 0.3, {{"cells", "0"}, {"group", "g"}});
  QueryRequest b =
      Request("cell_histogram", 0.5, {{"cells", "3"}, {"group", "g"}});
  auto responses = engine->ServeBatch({a, b});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  // Thm 4.2: the group costs max(0.3, 0.5), not 0.8.
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.5);
  EXPECT_TRUE(responses[0].receipt.parallel);
  EXPECT_DOUBLE_EQ(responses[0].receipt.charged +
                       responses[1].receipt.charged,
                   0.5);
  // Each member's noise is still calibrated to its own epsilon.
  EXPECT_DOUBLE_EQ(responses[0].receipt.epsilon, 0.3);
  EXPECT_DOUBLE_EQ(responses[1].receipt.epsilon, 0.5);
  // Each cell of the 2x2-partitioned 4x4 grid holds 4 values.
  EXPECT_EQ(responses[0].values.size(), 4u);
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 2.0);
}

TEST(ReleaseEngineTest, ParallelGroupWithAFreeMemberIsServed) {
  // Line(6) split into G^P cells {0..3} / {4} / {5}, no constraints.
  // The member on the singleton cell {4} has no in-cell edge, so S = 0:
  // it is an exact release charged nothing, and the group costs the
  // other member's 0.5.
  auto domain = LineDomain(6);
  const std::vector<uint64_t> cell_of{0, 0, 0, 0, 1, 2};
  Policy policy =
      Policy::Create(domain,
                     std::make_shared<const PartitionGraph>(
                         cell_of.size(),
                         [cell_of](ValueIndex x) { return cell_of[x]; },
                         "partition|cells"))
          .value();
  Dataset data = Dataset::Create(domain, {0, 2, 3, 4, 4, 5}).value();
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  auto engine = MakeEngine(policy, data, options);

  auto responses = engine->ServeBatch(ParseBatchRequests(
      "cell_histogram eps=0.5 cells=0 group=g\n"
      "cell_histogram eps=0.25 cells=1 group=g\n").value());
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 2.0);
  EXPECT_DOUBLE_EQ(responses[1].sensitivity, 0.0);
  EXPECT_DOUBLE_EQ(responses[0].receipt.charged, 0.5);
  EXPECT_DOUBLE_EQ(responses[1].receipt.charged, 0.0);
  EXPECT_EQ(responses[1].values, std::vector<double>{2.0});
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.5);
}

TEST(ReleaseEngineTest, ParallelGroupWithOverlappingCellsRefused) {
  auto domain = GridDomain(4, 2);
  Policy policy = Policy::GridPartition(domain, {2, 2}).value();
  Dataset data = MakeData(domain, 300);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 10.0;
  auto engine = MakeEngine(policy, data, options);

  QueryRequest a =
      Request("cell_histogram", 0.3, {{"cells", "0,1"}, {"group", "g"}});
  QueryRequest b =
      Request("cell_histogram", 0.3, {{"cells", "1,2"}, {"group", "g"}});
  auto responses = engine->ServeBatch({a, b});  // overlap on cell 1
  EXPECT_EQ(responses[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(responses[1].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
}

TEST(ReleaseEngineTest, ParallelGroupWithNonCellQueryRefused) {
  auto domain = GridDomain(4, 2);
  Policy policy = Policy::GridPartition(domain, {2, 2}).value();
  Dataset data = MakeData(domain, 300);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 10.0;
  auto engine = MakeEngine(policy, data, options);

  QueryRequest a =
      Request("cell_histogram", 0.3, {{"cells", "0"}, {"group", "g"}});
  QueryRequest b = Request("histogram", 0.3, {{"group", "g"}});
  auto responses = engine->ServeBatch({a, b});
  EXPECT_EQ(responses[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(responses[1].status.code(), StatusCode::kFailedPrecondition);
}

TEST(ReleaseEngineTest, EdgelessPolicyReleasesExactlyForFree) {
  // Singleton partition cells: G^P has no edges, so S(h, P) = 0 and the
  // histogram is released exactly at zero cost (Sec 5).
  auto domain = GridDomain(4, 2);
  Policy policy = Policy::GridPartition(domain, {4, 4}).value();
  Dataset data = MakeData(domain, 300);
  auto hist = data.CompleteHistogram().value();
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 0.0;  // no budget at all
  auto engine = MakeEngine(policy, data, options);
  auto responses = engine->ServeBatch({HistogramRequest(0.0)});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 0.0);
  EXPECT_DOUBLE_EQ(responses[0].receipt.charged, 0.0);
  EXPECT_EQ(responses[0].values, hist.counts());
}

TEST(ReleaseEngineTest, ParallelGroupChargedAtFirstMemberPosition) {
  // Budget contention: the group appears before the sequential query, so
  // under a 0.5 budget the group (0.4) wins and the later sequential
  // query (0.4) is refused — admission is strictly in request order.
  auto domain = GridDomain(4, 2);
  Policy policy = Policy::GridPartition(domain, {2, 2}).value();
  Dataset data = MakeData(domain, 300);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 0.5;
  auto engine = MakeEngine(policy, data, options);

  QueryRequest a =
      Request("cell_histogram", 0.4, {{"cells", "0"}, {"group", "g"}});
  QueryRequest b = HistogramRequest(0.4);
  auto responses = engine->ServeBatch({a, b});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_EQ(responses[1].status.code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.4);
}

TEST(ReleaseEngineTest, UnknownPartitionCellRefused) {
  auto domain = GridDomain(4, 2);
  Policy policy = Policy::GridPartition(domain, {2, 2}).value();
  Dataset data = MakeData(domain, 300);
  ReleaseEngineOptions options;
  auto engine = MakeEngine(policy, data, options);
  QueryRequest ghost = Request("cell_histogram", 0.3, {{"cells", "0,99"}});
  auto responses = engine->ServeBatch({ghost});
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(ReleaseEngineTest, EdgelessOrderedFamilyReleasedExactlyForFree) {
  // theta < scale: the distance-threshold graph has no edges, so the
  // cumulative histogram has sensitivity 0 and range/cdf/quantile
  // queries are exact and free even at eps = 0.
  auto domain = LineDomain(32);
  Policy policy = Policy::DistanceThreshold(domain, 0.5).value();
  Dataset data = MakeData(domain, 200);
  auto cumulative = data.CompleteHistogram().value().CumulativeSums();
  ReleaseEngineOptions options;
  options.default_session_budget = 0.0;
  auto engine = MakeEngine(policy, data, options);
  QueryRequest range = Request("range", 0.0, {{"lo", "4"}, {"hi", "20"}});
  QueryRequest cdf = Request("cdf", 0.0);
  auto responses = engine->ServeBatch({range, cdf});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  EXPECT_DOUBLE_EQ(responses[0].values[0],
                   cumulative[20] - cumulative[3]);
  EXPECT_DOUBLE_EQ(responses[0].receipt.charged, 0.0);
  EXPECT_EQ(responses[1].values.size(), 32u);
}

TEST(ReleaseEngineTest, MismatchedDomainsRefusedAtCreate) {
  auto policy_domain = LineDomain(32);
  Policy policy = Policy::FullDomain(policy_domain).value();
  // Same size and attribute count, different shape: 32 = 32 but the
  // attribute cardinality/scale differ.
  auto data_domain = std::make_shared<const Domain>(
      Domain::Line(32, 2.0, "other").value());
  Dataset data = MakeData(data_domain, 50);
  auto engine = ReleaseEngine::Create(policy, data, {});
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReleaseEngineTest, PositiveSensitivityRequiresPositiveEpsilon) {
  auto domain = LineDomain(16);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 100);
  ReleaseEngineOptions options;
  auto engine = MakeEngine(policy, data, options);
  auto responses = engine->ServeBatch({HistogramRequest(0.0)});
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(ReleaseEngineTest, OverflowingNoiseScaleRefusedBeforeCharge) {
  // S(h, line) = 2 and eps = 1e-308 is a normal double, but S/eps is
  // above DBL_MAX: a release at that scale would publish inf in every
  // cell. Admission refuses it before any charge or stream id, so the
  // next query draws stream 0, as on a fresh engine.
  auto domain = LineDomain(50);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 300);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  auto engine = MakeEngine(policy, data, options);
  auto responses =
      engine->ServeBatch({HistogramRequest(1e-308), HistogramRequest(0.5)});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(responses[0].status.message().find("overflows"),
            std::string::npos)
      << responses[0].status.message();
  EXPECT_TRUE(responses[0].values.empty());
  EXPECT_EQ(responses[0].receipt.charge_id, 0u);
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.5);

  auto fresh = MakeEngine(policy, data, options);
  EXPECT_EQ(fresh->ServeBatch({HistogramRequest(0.5)})[0].values,
            responses[1].values);
}

TEST(ReleaseEngineTest, OverflowingUnionScaleRefusesTheGroup) {
  // A pinned-constrained group skips pass 1's per-member sensitivity:
  // its members are noised at the union-cells scale fixed in pass 2,
  // which must refuse an overflowing S/eps there, as a group, with
  // nothing charged. Line(7) in G^P cells {0..3} / {4, 5} / {6} under a
  // constant pinned count.
  auto domain = LineDomain(7);
  Dataset data = MakeData(domain, 80);
  const std::vector<uint64_t> cell_of{0, 0, 0, 0, 1, 1, 2};
  auto part = std::make_shared<const PartitionGraph>(
      cell_of.size(), [cell_of](ValueIndex x) { return cell_of[x]; },
      "partition|scale");
  ConstraintSet cs;
  cs.AddWithAnswer(CountQuery("all", [](ValueIndex) { return true; }),
                   data.size());
  Policy policy = Policy::Create(domain, part, std::move(cs)).value();
  auto engine = MakeEngine(policy, data, {});
  auto responses = engine->ServeBatch(ParseBatchRequests(
      "cell_histogram eps=1e-308 cells=0 group=g\n"
      "cell_histogram eps=1e-308 cells=1 group=g\n").value());
  ASSERT_EQ(responses.size(), 2u);
  for (const QueryResponse& r : responses) {
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status.message().find("parallel group 'g'"),
              std::string::npos)
        << r.status.message();
    EXPECT_NE(r.status.message().find("overflows"), std::string::npos)
        << r.status.message();
    EXPECT_EQ(r.receipt.charge_id, 0u);
  }
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
}

TEST(ReleaseEngineTest, NonFiniteReleaseIsRefundedAndNotPublished) {
  // On the 8x8 grid under G^full, S/eps = 2 / 2.5e-308 is finite, so
  // admission charges the query, but quadtree noises each of its 3
  // levels at 2 * 3 / eps, which overflows. The drain fails the
  // release: nothing is published and the charge comes back.
  auto domain = GridDomain(8, 2);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 300);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 1.0;
  auto engine = MakeEngine(policy, data, options);
  std::vector<size_t> streamed;
  auto responses = engine->ServeBatch(
      {Request("quadtree", 2.5e-308,
               {{"x0", "0"}, {"x1", "5"}, {"y0", "1"}, {"y1", "6"}})},
      [&streamed](size_t index, const QueryResponse& r) {
        EXPECT_TRUE(r.values.empty());
        streamed.push_back(index);
      });
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(responses[0].values.empty());
  EXPECT_TRUE(responses[0].receipt.refunded);
  EXPECT_EQ(streamed, std::vector<size_t>{0});
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
}

TEST(ReleaseEngineTest, RequestWithoutOpRefused) {
  // A default-constructed request has no op; the registry-driven engine
  // refuses it instead of guessing a kind, and QueryKindName reports the
  // sentinel instead of falling through to some default.
  auto domain = LineDomain(16);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 100);
  auto engine = MakeEngine(policy, data, {});
  QueryRequest empty;
  EXPECT_EQ(QueryKindName(empty), "unknown");
  auto responses = engine->ServeBatch({empty, HistogramRequest(0.5)});
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
}

TEST(ReleaseEngineTest, FailedQueryDoesNotSinkTheBatch) {
  auto domain = GridDomain(4, 2);  // 2-D: cumulative queries must fail
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 100);
  ReleaseEngineOptions options;
  options.default_session_budget = 10.0;
  auto engine = MakeEngine(policy, data, options);
  QueryRequest bad = Request("cdf", 0.5);
  auto responses = engine->ServeBatch({bad, HistogramRequest(0.5)});
  EXPECT_FALSE(responses[0].status.ok());
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  // The failed query was never charged.
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.5);
}

TEST(ReleaseEngineTest, FailedQueryAfterAdmissionIsRefunded) {
  // A query that resolves its sensitivity and passes budget admission,
  // then fails at execution time. The charge must come back: a failed
  // query leaves the balance unchanged.
  auto domain = LineDomain(32);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 200);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 1.0;
  auto engine = MakeEngine(policy, data, options);

  QueryRequest bad = Request("fail_after_noise", 0.3);
  auto responses = engine->ServeBatch({bad});
  ASSERT_FALSE(responses[0].status.ok());
  EXPECT_TRUE(responses[0].receipt.refunded);
  EXPECT_DOUBLE_EQ(responses[0].receipt.remaining, 1.0);
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);

  // The refunded epsilon is spendable: a full-budget query still fits.
  auto retry = engine->ServeBatch({HistogramRequest(1.0)});
  ASSERT_TRUE(retry[0].status.ok()) << retry[0].status.ToString();
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 1.0);
}

TEST(ReleaseEngineTest, DeliveredReceiptsAreSettledAndNotRefundable) {
  // Once a batch returns, every delivered charge is settled: replaying
  // a response's receipt against the accountant must not mint budget
  // (and the settle keeps refund tracking bounded by in-flight work).
  auto domain = LineDomain(16);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 100);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 1.0;
  auto engine = MakeEngine(policy, data, options);
  auto responses = engine->ServeBatch({HistogramRequest(0.3)});
  ASSERT_TRUE(responses[0].status.ok());
  EXPECT_EQ(engine->accountant().Refund(responses[0].receipt).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.3);
}

TEST(ReleaseEngineTest, FailedQueryCarriesNoPartialPayload) {
  // The op draws its noise before it fails. The refund is only sound
  // if nothing was published, so the partial noisy release must be
  // dropped along with the charge.
  auto domain = LineDomain(32);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 200);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 1.0;
  auto engine = MakeEngine(policy, data, options);

  QueryRequest bad = Request("fail_after_noise", 0.3);
  auto responses = engine->ServeBatch({bad});
  ASSERT_FALSE(responses[0].status.ok());
  EXPECT_TRUE(responses[0].values.empty());
  EXPECT_TRUE(responses[0].receipt.refunded);
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
}

TEST(ReleaseEngineTest, MixedBatchRefundsOnlyTheFailedQuery) {
  auto domain = LineDomain(32);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 200);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 10.0;
  auto engine = MakeEngine(policy, data, options);

  QueryRequest good = Request("range", 0.2, {{"lo", "2"}, {"hi", "20"}});
  QueryRequest bad = Request("fail_after_noise", 0.3);
  auto responses = engine->ServeBatch({good, bad, HistogramRequest(0.1)});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  ASSERT_FALSE(responses[1].status.ok());
  ASSERT_TRUE(responses[2].status.ok()) << responses[2].status.ToString();
  EXPECT_FALSE(responses[0].receipt.refunded);
  EXPECT_TRUE(responses[1].receipt.refunded);
  // 0.2 + 0.1 stay spent; the failed 0.3 came back.
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.3);
}

TEST(ReleaseEngineTest, RangeOutsideTheDomainIsRefusedBeforeAdmission) {
  // Each 1-D range kind refuses lo > hi or hi >= |T| in Validate: no
  // charge, no refund, and no stream id, so the rest of the batch
  // draws exactly the noise it draws without the bad range.
  auto domain = LineDomain(50);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 200);
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  auto clean = MakeEngine(policy, data, options)->ServeBatch(
      {HistogramRequest(0.5)});
  ASSERT_TRUE(clean[0].status.ok()) << clean[0].status.ToString();
  const std::vector<std::pair<std::string, std::string>> ranges = {
      {"3", "70"}, {"9", "2"}};
  for (const char* kind : {"range", "hier_range", "wavelet_range"}) {
    for (const auto& [lo, hi] : ranges) {
      SCOPED_TRACE(std::string(kind) + " lo=" + lo + " hi=" + hi);
      auto engine = MakeEngine(policy, data, options);
      auto responses = engine->ServeBatch(
          {Request(kind, 0.5, {{"lo", lo}, {"hi", hi}}),
           HistogramRequest(0.5)});
      EXPECT_EQ(responses[0].status.code(), StatusCode::kOutOfRange);
      EXPECT_NE(responses[0].status.message().find("lo=" + lo + " hi=" + hi),
                std::string::npos)
          << responses[0].status.message();
      EXPECT_NE(responses[0].status.message().find("|T| = 50"),
                std::string::npos)
          << responses[0].status.message();
      EXPECT_EQ(responses[0].receipt.charge_id, 0u);
      EXPECT_FALSE(responses[0].receipt.refunded);
      EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.5);
      ASSERT_TRUE(responses[1].status.ok());
      EXPECT_EQ(responses[1].values, clean[0].values);
    }
  }
}

TEST(ReleaseEngineTest, EnginesOnASharedPoolStayDeterministic) {
  // Two engines injected with one shared pool: output must match a
  // zero-worker pool's run bit for bit (determinism comes from stream
  // ids, not from which thread executes).
  auto domain = LineDomain(64);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 400);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(HistogramRequest(0.1));

  ReleaseEngineOptions solo;
  solo.root_seed = kSeed;
  solo.pool = std::make_shared<ThreadPool>(0);
  solo.default_session_budget = 100.0;
  auto reference = MakeEngine(policy, data, solo)->ServeBatch(batch);

  auto pool = std::make_shared<ThreadPool>(4);
  ReleaseEngineOptions pooled;
  pooled.root_seed = kSeed;
  pooled.pool = pool;
  pooled.default_session_budget = 100.0;
  auto engine_a = MakeEngine(policy, data, pooled);
  auto engine_b = MakeEngine(policy, data, pooled);
  auto from_a = engine_a->ServeBatch(batch);
  auto from_b = engine_b->ServeBatch(batch);
  ASSERT_EQ(reference.size(), from_a.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(reference[i].status.ok());
    EXPECT_EQ(reference[i].values, from_a[i].values) << "query " << i;
    EXPECT_EQ(reference[i].values, from_b[i].values) << "query " << i;
  }
}

TEST(BatchRequestTest, ParsesAllKindsAndKeys) {
  const std::string text =
      "# comment line\n"
      "histogram eps=0.5 label=h1 session=alice\n"
      "\n"
      "cell_histogram eps=0.2 cells=0,3 group=g1\n"
      "range eps=0.1 lo=5 hi=40\n"
      "quantiles eps=0.1 qs=0.1,0.9\n"
      "quantiles eps=0.1   # default quantiles\n"
      "cdf eps=0.1\n"
      "kmeans eps=0.5 k=3 iters=7\n"
      "mean eps=0.2\n"
      "wavelet_range eps=0.3 lo=2 hi=9\n";
  auto requests = ParseBatchRequests(text);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), 9u);
  EXPECT_EQ(QueryKindName((*requests)[0]), "histogram");
  EXPECT_DOUBLE_EQ((*requests)[0].epsilon, 0.5);
  EXPECT_EQ((*requests)[0].label, "h1");
  EXPECT_EQ((*requests)[0].session, "alice");
  EXPECT_EQ(QueryKindName((*requests)[1]), "cell_histogram");
  EXPECT_EQ((*requests)[1].parallel_group, "g1");
  EXPECT_EQ(QueryKindName((*requests)[2]), "range");
  EXPECT_EQ(QueryKindName((*requests)[3]), "quantiles");
  EXPECT_EQ(QueryKindName((*requests)[5]), "cdf");
  EXPECT_EQ(QueryKindName((*requests)[6]), "kmeans");
  EXPECT_EQ(QueryKindName((*requests)[7]), "mean");
  EXPECT_EQ(QueryKindName((*requests)[8]), "wavelet_range");
}

TEST(BatchRequestTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseBatchRequests("frobnicate eps=1\n").ok());
  EXPECT_FALSE(ParseBatchRequests("histogram eps\n").ok());
  EXPECT_FALSE(ParseBatchRequests("histogram eps=abc\n").ok());
  EXPECT_FALSE(ParseBatchRequests("histogram bogus=1\n").ok());
  EXPECT_FALSE(ParseBatchRequests("range eps=0.1 lo=x hi=2\n").ok());
  // Negative integers must not wrap to huge uint64 values.
  EXPECT_FALSE(ParseBatchRequests("kmeans eps=0.5 k=-1\n").ok());
  EXPECT_FALSE(ParseBatchRequests("range eps=0.1 lo=-1 hi=2\n").ok());
  EXPECT_FALSE(ParseBatchRequests("cell_histogram eps=0.1 cells=-3\n").ok());
  // One kind's keys are not another's: each op owns its key set.
  EXPECT_FALSE(ParseBatchRequests("histogram eps=0.5 cells=0\n").ok());
  EXPECT_FALSE(ParseBatchRequests("mean eps=0.5 lo=0 hi=3\n").ok());
}

TEST(BatchRequestTest, HashInsideValueIsNotAComment) {
  auto requests = ParseBatchRequests(
      "histogram eps=0.5 label=run#3 session=team#7  # real comment\n");
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), 1u);
  EXPECT_EQ((*requests)[0].label, "run#3");
  EXPECT_EQ((*requests)[0].session, "team#7");
}

TEST(BatchRequestTest, ParsedBatchRunsEndToEnd) {
  auto domain = LineDomain(32);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 200);
  ReleaseEngineOptions options;
  options.default_session_budget = 10.0;
  auto engine = MakeEngine(policy, data, options);
  auto requests = ParseBatchRequests(
      "histogram eps=0.5 label=h\n"
      "range eps=0.2 lo=2 hi=20 label=r\n"
      "quantiles eps=0.2 label=q\n");
  ASSERT_TRUE(requests.ok());
  auto responses = engine->ServeBatch(*requests);
  for (const auto& resp : responses) {
    EXPECT_TRUE(resp.status.ok()) << resp.label << ": "
                                  << resp.status.ToString();
  }
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.9);
}

}  // namespace
}  // namespace blowfish
