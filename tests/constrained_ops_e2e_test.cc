// End-to-end serving of constrained policies for the parallel /
// value-weighted query family: batch-file round-trips of
// `cell_histogram` (as a parallel group), `mean`, and `wavelet_range`
// through ReleaseEngine and EngineHost on two constrained fixtures,
// asserting
//  * bit-identical payloads across pool sizes {0, 1, 8} (the noise a
//    query draws is a function of admission order, never scheduling),
//  * correct budget accounting: the parallel group is charged once at
//    max(eps) — a per-member charge would overrun the exactly-sized
//    budget below — and both members are noised at the shared
//    union-cells sensitivity,
//  * on hand-built cell fixtures, the exact union scale of a coherent
//    group, the group refusal of a straddling constraint, and the free
//    exact release of singleton cells,
//  * the formerly refused ops (kmeans, the ordered S_T family) now
//    serve pinned policies through the cumulative-histogram /
//    move-norm chain bounds, and the one documented holdout
//    (hier_range, whose per-node budget split has no per-move distance
//    bound under chains) refuses with a structured status naming the
//    refusing op and the refused policy.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/policy.h"
#include "core/secret_graph.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "server/engine_host.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

Dataset MakeData(const std::shared_ptr<const Domain>& domain, size_t n,
                 uint64_t seed = 11) {
  Random rng(seed);
  std::vector<ValueIndex> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(static_cast<ValueIndex>(
        rng.UniformInt(0, static_cast<int64_t>(domain->size()) - 1)));
  }
  return Dataset::Create(domain, std::move(tuples)).value();
}

/// Fixture A: Line(8) split into G^P cells {0..3} / {4..7}, one count
/// constraint #(x < 2) pinned from the dataset. Critical only in cell 0.
Policy FixtureA(const std::shared_ptr<const Domain>& domain,
                const Dataset& data) {
  auto part = PartitionGraph::UniformGrid(domain, {2}).value();
  ConstraintSet cs;
  CountQuery low("low", [](ValueIndex x) { return x < 2; });
  const uint64_t answer = low.Evaluate(data);
  cs.AddWithAnswer(std::move(low), answer);
  return Policy::Create(domain,
                        std::shared_ptr<const SecretGraph>(part.release()),
                        std::move(cs))
      .value();
}

/// Fixture B: Line(16) split into four G^P cells of four values, two
/// disjoint-interval count constraints pinned from the dataset
/// (disjoint supports keep the all-pairs Def 8.2 sparsity: no single
/// move can lift or lower both). Critical in cells 0 and 2.
Policy FixtureB(const std::shared_ptr<const Domain>& domain,
                const Dataset& data) {
  auto part = PartitionGraph::UniformGrid(domain, {4}).value();
  ConstraintSet cs;
  CountQuery lo("lo", [](ValueIndex x) { return x >= 1 && x <= 2; });
  CountQuery hi("hi", [](ValueIndex x) { return x >= 9 && x <= 10; });
  const uint64_t lo_answer = lo.Evaluate(data);
  const uint64_t hi_answer = hi.Evaluate(data);
  cs.AddWithAnswer(std::move(lo), lo_answer);
  cs.AddWithAnswer(std::move(hi), hi_answer);
  return Policy::Create(domain,
                        std::shared_ptr<const SecretGraph>(part.release()),
                        std::move(cs))
      .value();
}

/// The batch under test, as a batch file. Epsilons are powers of two so
/// the exact budget arithmetic below has no rounding slack: the group
/// costs max(0.25, 0.125) = 0.25, the whole batch exactly 1.0.
constexpr char kBatchText[] =
    "cell_histogram eps=0.25 cells=0 group=g label=cells0\n"
    "cell_histogram eps=0.125 cells=1 group=g label=cells1\n"
    "mean eps=0.25\n"
    "wavelet_range eps=0.25 lo=1 hi=5\n"
    "histogram eps=0.25\n";

std::vector<QueryRequest> ParseBatch() {
  auto requests = ParseBatchRequests(kBatchText);
  EXPECT_TRUE(requests.ok()) << requests.status().ToString();
  return std::move(*requests);
}

std::unique_ptr<ReleaseEngine> MakeEngine(
    const Policy& policy, const Dataset& data,
    std::shared_ptr<ThreadPool> pool = nullptr) {
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 1.0;
  if (pool != nullptr) options.pool = std::move(pool);
  auto engine = ReleaseEngine::Create(policy, data, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

struct Fixture {
  std::string name;
  Policy policy;
  Dataset data;
};

std::vector<Fixture> Fixtures() {
  std::vector<Fixture> out;
  {
    auto domain = LineDomain(8);
    Dataset data = MakeData(domain, 120);
    Policy policy = FixtureA(domain, data);
    out.push_back(Fixture{"A", std::move(policy), std::move(data)});
  }
  {
    auto domain = LineDomain(16);
    Dataset data = MakeData(domain, 200, 13);
    Policy policy = FixtureB(domain, data);
    out.push_back(Fixture{"B", std::move(policy), std::move(data)});
  }
  return out;
}

TEST(ConstrainedOpsE2ETest, EngineServesBatchPoolSizeInvariant) {
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    auto reference_engine = MakeEngine(f.policy, f.data);
    const std::vector<QueryRequest> batch = ParseBatch();
    const std::vector<QueryResponse> reference =
        reference_engine->ServeBatch(batch);
    ASSERT_EQ(reference.size(), 5u);
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_TRUE(reference[i].status.ok())
          << "query " << i << ": " << reference[i].status.ToString();
      EXPECT_FALSE(reference[i].values.empty()) << "query " << i;
      EXPECT_GT(reference[i].sensitivity, 0.0) << "query " << i;
    }
    // Both parallel members carry the shared union-cells sensitivity.
    EXPECT_DOUBLE_EQ(reference[0].sensitivity, reference[1].sensitivity);

    // The whole batch costs exactly the session budget: 0.25 (group
    // max, charged once) + 0.25 + 0.25 + 0.25. A per-member group
    // charge (0.375) would have refused the last query.
    EXPECT_DOUBLE_EQ(reference_engine->accountant().Spent(""), 1.0);
    // The one group charge is attributed to the most expensive member.
    EXPECT_DOUBLE_EQ(reference[0].receipt.charged, 0.25);
    EXPECT_DOUBLE_EQ(reference[1].receipt.charged, 0.0);

    for (size_t pool_size : {size_t{0}, size_t{1}, size_t{8}}) {
      auto engine =
          MakeEngine(f.policy, f.data,
                     std::make_shared<ThreadPool>(pool_size));
      const std::vector<QueryResponse> responses =
          engine->ServeBatch(ParseBatch());
      ASSERT_EQ(responses.size(), reference.size());
      for (size_t i = 0; i < responses.size(); ++i) {
        EXPECT_EQ(responses[i].status.code(), reference[i].status.code())
            << "pool " << pool_size << " query " << i;
        EXPECT_EQ(responses[i].values, reference[i].values)
            << "pool " << pool_size << " query " << i;
        EXPECT_DOUBLE_EQ(responses[i].sensitivity,
                         reference[i].sensitivity)
            << "pool " << pool_size << " query " << i;
      }
    }
  }
}

TEST(ConstrainedOpsE2ETest, HostServesBatchPoolSizeInvariant) {
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    std::vector<std::vector<QueryResponse>> runs;
    for (size_t pool_size : {size_t{0}, size_t{1}, size_t{8}}) {
      EngineHostOptions host_options;
      host_options.num_threads = pool_size;
      EngineHost host(host_options);
      TenantOptions tenant;
      tenant.default_session_budget = 1.0;
      ASSERT_TRUE(host.AddTenant("p", "d", f.policy, f.data, tenant).ok());
      auto responses = host.ServeBatch("p", "d", ParseBatch());
      ASSERT_TRUE(responses.ok()) << responses.status().ToString();
      ASSERT_EQ(responses->size(), 5u);
      for (size_t i = 0; i < responses->size(); ++i) {
        ASSERT_TRUE((*responses)[i].status.ok())
            << "pool " << pool_size << " query " << i << ": "
            << (*responses)[i].status.ToString();
      }
      // The batch consumed the whole tenant budget in one parallel-aware
      // charge; the cheapest further query is refused.
      auto refused = host.ServeBatch(
          "p", "d", {MakeQueryRequest("histogram", 0.125).value()});
      ASSERT_TRUE(refused.ok());
      EXPECT_EQ((*refused)[0].status.code(),
                StatusCode::kResourceExhausted)
          << "pool " << pool_size;
      runs.push_back(std::move(*responses));
    }
    for (size_t r = 1; r < runs.size(); ++r) {
      for (size_t i = 0; i < runs[r].size(); ++i) {
        EXPECT_EQ(runs[r][i].values, runs[0][i].values)
            << "run " << r << " query " << i;
      }
    }
  }
}

TEST(ConstrainedOpsE2ETest, UnconstrainedResultsUnchangedByConstrainedPath) {
  // The same batch against the same data under the UNCONSTRAINED twin
  // of fixture A exercises the legacy code paths: per-member group
  // sensitivities (cell 1 has S = 2, not the union's), and the wavelet
  // epsilon scale factor 1. This guards the acceptance criterion that
  // previously-passing unconstrained results stay bit-identical: the
  // constrained machinery must be invisible when no constraint is
  // pinned.
  auto domain = LineDomain(8);
  Dataset data = MakeData(domain, 120);
  auto part = PartitionGraph::UniformGrid(domain, {2}).value();
  Policy unconstrained =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()))
          .value();
  auto engine = MakeEngine(unconstrained, data);
  const std::vector<QueryResponse> responses =
      engine->ServeBatch(ParseBatch());
  ASSERT_EQ(responses.size(), 5u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << "query " << i << ": " << responses[i].status.ToString();
  }
  // Per-member scales, not the shared union scale.
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 2.0);
  EXPECT_DOUBLE_EQ(responses[1].sensitivity, 2.0);

  // An UNPINNED constraint set restricts nothing (SatisfiedBy ignores
  // queries without answers), so it must behave exactly like the
  // unconstrained policy: same admissions, same scales, and — with the
  // same root seed — bit-identical noise.
  auto part2 = PartitionGraph::UniformGrid(domain, {2}).value();
  ConstraintSet unpinned;
  unpinned.Add(CountQuery("low", [](ValueIndex x) { return x < 2; }));
  Policy inert =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part2.release()),
                     std::move(unpinned))
          .value();
  auto inert_engine = MakeEngine(inert, data);
  const std::vector<QueryResponse> inert_responses =
      inert_engine->ServeBatch(ParseBatch());
  ASSERT_EQ(inert_responses.size(), responses.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(inert_responses[i].status.code(), responses[i].status.code())
        << "query " << i;
    EXPECT_EQ(inert_responses[i].values, responses[i].values)
        << "query " << i;
    EXPECT_DOUBLE_EQ(inert_responses[i].sensitivity,
                     responses[i].sensitivity)
        << "query " << i;
  }
}

TEST(ConstrainedOpsE2ETest, ZeroEpsilonMemberRefusedAtUnionScale) {
  // Cell 2 is a singleton {6} with no G^P edge inside, and the pinned
  // constraint is CONSTANT (it counts every tuple) so no move ever
  // crosses it: the member's own sensitivity is exactly 0 and admission
  // pass 1 accepts eps=0 as a free exact release. (Any crossable pinned
  // query would already give the singleton cell a positive own
  // sensitivity — a compensating move can land there — and pass 1 would
  // refuse eps=0 itself.) But the group is noised at the shared
  // union-cells scale, which is positive via cell 0's free in-cell
  // moves, so the zero-epsilon member must be refused at admission, as
  // a group, with nothing charged — not admitted, charged, and then
  // failed inside Execute.
  auto domain = LineDomain(7);
  Dataset data = MakeData(domain, 80);
  const std::vector<uint64_t> cell_of{0, 0, 0, 0, 1, 1, 2};
  auto part = std::make_shared<const PartitionGraph>(
      cell_of.size(), [cell_of](ValueIndex x) { return cell_of[x]; },
      "partition|e2e");
  ConstraintSet cs;
  cs.AddWithAnswer(CountQuery("all", [](ValueIndex) { return true; }),
                   data.size());
  Policy policy = Policy::Create(domain, part, std::move(cs)).value();
  auto engine = MakeEngine(policy, data);
  const std::vector<QueryResponse> responses = engine->ServeBatch(
      {MakeQueryRequest("cell_histogram", 0.25,
                        {{"cells", "0"}, {"group", "g"}})
           .value(),
       MakeQueryRequest("cell_histogram", 0.0,
                        {{"cells", "2"}, {"group", "g"}})
           .value()});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(responses[1].status.message().find("union-cells"),
            std::string::npos)
      << responses[1].status.message();
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
}

TEST(ConstrainedOpsE2ETest, FormerlyRefusedOpsNowServePinnedPolicies) {
  // kmeans and the ordered S_T family used to refuse every constrained
  // policy; both now route their linear queries through the weighted
  // Thm 8.2 chain bound (q_sum/q_size move norms, the cumulative
  // histogram) and serve pinned fixtures end to end.
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    auto engine = MakeEngine(f.policy, f.data);
    const std::vector<QueryResponse> responses = engine->ServeBatch(
        {MakeQueryRequest("kmeans", 0.25, {{"k", "2"}}).value(),
         MakeQueryRequest("range", 0.25, {{"lo", "0"}, {"hi", "3"}}).value(),
         MakeQueryRequest("cdf", 0.125).value(),
         MakeQueryRequest("quantiles", 0.125, {{"qs", "0.25,0.75"}})
             .value()});
    ASSERT_EQ(responses.size(), 4u);
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok())
          << "query " << i << ": " << responses[i].status.ToString();
      EXPECT_FALSE(responses[i].values.empty()) << "query " << i;
      EXPECT_GT(responses[i].sensitivity, 0.0) << "query " << i;
    }
    // Everything was admitted and charged.
    EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.75);
  }
}

TEST(ConstrainedOpsE2ETest, HierRangeRefusesWithStructuredStatus) {
  // hier_range is the one documented constrained holdout: the ordered
  // hierarchical mechanism splits its budget per tree node assuming a
  // per-move distance bound, which Thm 8.2 chains do not provide.
  // Constrained callers are routed to `range` instead; the refusal
  // must be structured — naming the op and the refused policy — and
  // must charge nothing.
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    auto engine = MakeEngine(f.policy, f.data);
    const std::vector<QueryResponse> responses = engine->ServeBatch(
        {MakeQueryRequest("hier_range", 0.25, {{"lo", "0"}, {"hi", "3"}})
             .value()});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status.code(), StatusCode::kUnimplemented);
    EXPECT_NE(responses[0].status.message().find("op 'hier_range'"),
              std::string::npos)
        << responses[0].status.message();
    EXPECT_NE(responses[0].status.message().find("constrained policies"),
              std::string::npos);
    EXPECT_NE(responses[0].status.message().find("partition"),
              std::string::npos)
        << "refusal must name the policy's secret graph: "
        << responses[0].status.message();
    // Nothing was charged for the refused query.
    EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
  }
}

TEST(ConstrainedOpsE2ETest, StraddlingGroupRefusedCoherentGroupServed) {
  // Fixture B's constraint "lo" is critical in cell 0 and "hi" in cell
  // 2 (two singleton coupled components). A group splitting cells
  // {0, 1} / {2, 3} keeps each component inside one member and is
  // served; a group splitting {0, 2} / {1, 3} cannot be refused on
  // component grounds — each component still touches one member — but
  // one pairing two critical cells of ONE constraint across members
  // requires a straddling constraint. Build one: a single interval
  // spanning cells 0 and 1 couples them into one component, and the
  // {0} / {1} grouping is refused.
  auto domain = LineDomain(16);
  Dataset data = MakeData(domain, 200, 13);
  Policy policy = FixtureB(domain, data);
  auto engine = MakeEngine(policy, data);
  auto ok_responses = engine->ServeBatch(ParseBatchRequests(
      "cell_histogram eps=0.125 cells=0,1 group=g\n"
      "cell_histogram eps=0.125 cells=2,3 group=g\n").value());
  ASSERT_EQ(ok_responses.size(), 2u);
  EXPECT_TRUE(ok_responses[0].status.ok())
      << ok_responses[0].status.ToString();
  EXPECT_TRUE(ok_responses[1].status.ok());

  auto part = PartitionGraph::UniformGrid(domain, {4}).value();
  ConstraintSet straddling;
  CountQuery wide("wide", [](ValueIndex x) { return x >= 3 && x <= 4; });
  const uint64_t answer = wide.Evaluate(data);
  straddling.AddWithAnswer(std::move(wide), answer);
  Policy coupled =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()),
                     std::move(straddling))
          .value();
  auto coupled_engine = MakeEngine(coupled, data);
  auto refused = coupled_engine->ServeBatch(ParseBatchRequests(
      "cell_histogram eps=0.125 cells=0 group=g\n"
      "cell_histogram eps=0.125 cells=1 group=g\n").value());
  ASSERT_EQ(refused.size(), 2u);
  EXPECT_EQ(refused[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused[0].status.message().find("couple cells"),
            std::string::npos)
      << refused[0].status.message();
  // The refused group charged nothing.
  EXPECT_DOUBLE_EQ(coupled_engine->accountant().Spent(""), 0.0);
}

TEST(ConstrainedOpsE2ETest, CellGroupOnHandBuiltCellFixtures) {
  // Line(6) split into G^P cells {0..3} / {4, 5}, with one pinned count
  // of {1, 2}: critical only in cell 0, so the {0} / {1} grouping is
  // coherent. Both members are noised at the union-cells scale
  // S_union = 4: a compensating move can carry a tuple from cell 0 into
  // cell 1, so noising cell 1 at its solo sensitivity 2 would
  // under-cover the joint loss at the max-epsilon charge.
  auto domain = LineDomain(6);
  const std::vector<uint64_t> cell_of{0, 0, 0, 0, 1, 1};
  auto partition = std::make_shared<const PartitionGraph>(
      cell_of.size(), [cell_of](ValueIndex x) { return cell_of[x]; },
      "partition|cells");
  Dataset data = Dataset::Create(domain, {0, 2, 3, 4, 4, 5}).value();
  auto pinned_policy = [&](CountQuery query) {
    ConstraintSet cs;
    const uint64_t answer = query.Evaluate(data);
    cs.AddWithAnswer(std::move(query), answer);
    return Policy::Create(domain, partition, std::move(cs)).value();
  };
  constexpr char kGroup[] =
      "cell_histogram eps=0.5 cells=0 group=g\n"
      "cell_histogram eps=0.25 cells=1 group=g\n";

  Policy coupled = pinned_policy(
      CountQuery("mid", [](ValueIndex x) { return x == 1 || x == 2; }));
  auto engine = MakeEngine(coupled, data);
  auto served = engine->ServeBatch(ParseBatchRequests(kGroup).value());
  ASSERT_EQ(served.size(), 2u);
  for (const QueryResponse& r : served) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_DOUBLE_EQ(r.sensitivity, 4.0);
  }
  EXPECT_EQ(served[0].values.size(), 4u);  // values 0..3
  EXPECT_EQ(served[1].values.size(), 2u);  // values 4..5
  // One parallel charge of max(eps), attributed to the larger member.
  EXPECT_DOUBLE_EQ(served[0].receipt.charged, 0.5);
  EXPECT_DOUBLE_EQ(served[1].receipt.charged, 0.0);
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.5);

  // A constraint critical in both cells couples them into one
  // component: the same grouping is refused, as a group, before any
  // charge.
  Policy straddling = pinned_policy(
      CountQuery("both", [](ValueIndex x) { return x == 1 || x == 4; }));
  auto straddling_engine = MakeEngine(straddling, data);
  auto refused =
      straddling_engine->ServeBatch(ParseBatchRequests(kGroup).value());
  ASSERT_EQ(refused.size(), 2u);
  EXPECT_EQ(refused[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(refused[1].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(straddling_engine->accountant().Spent(""), 0.0);

  // Unconstrained singleton cells have no in-cell edge: every member
  // releases its exact count, and the all-free group charges nothing.
  auto pair_domain = LineDomain(2);
  Policy singletons =
      Policy::Create(pair_domain,
                     std::make_shared<const PartitionGraph>(
                         2, [](ValueIndex x) { return x; }, "partition|1x1"))
          .value();
  Dataset pair_data = Dataset::Create(pair_domain, {0, 1, 1}).value();
  auto free_engine = MakeEngine(singletons, pair_data);
  auto exact =
      free_engine->ServeBatch(ParseBatchRequests(kGroup).value());
  ASSERT_EQ(exact.size(), 2u);
  for (const QueryResponse& r : exact) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_DOUBLE_EQ(r.sensitivity, 0.0);
  }
  EXPECT_EQ(exact[0].values, std::vector<double>{1.0});
  EXPECT_EQ(exact[1].values, std::vector<double>{2.0});
  EXPECT_DOUBLE_EQ(free_engine->accountant().Spent(""), 0.0);
}

}  // namespace
}  // namespace blowfish
