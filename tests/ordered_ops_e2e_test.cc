// The ordered scenario column, end to end: the S_T family (`range`,
// `cdf`, `quantiles`) serving PINNED-constrained policies at the
// weighted Thm 8.2 chain bound over the prefix-sum query, the
// randomized oracle-dominance certificate for that bound (mirroring
// the cell-histogram suite in constrained_parallel_test.cc), and the
// self-registered `hier_range` op: serving the graphs the Ordered
// Hierarchical mechanism supports (line, full, G^{d,theta}) and
// refusing everything else PRE-charge with a structured status.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/neighbors.h"
#include "core/policy.h"
#include "core/secret_graph.h"
#include "core/sensitivity.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "util/random.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;
// The engine's defaults (SensitivityEnv), so analytic recomputations
// below match what admission resolved.
constexpr uint64_t kMaxEdges = uint64_t{1} << 24;
constexpr uint64_t kMaxPairs = uint64_t{1} << 28;
constexpr size_t kMaxVertices = 24;

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

QueryRequest Request(
    const std::string& kind, double eps,
    const std::vector<std::pair<std::string, std::string>>& kv = {}) {
  auto request = MakeQueryRequest(kind, eps, kv);
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  return std::move(*request);
}

std::unique_ptr<ReleaseEngine> MakeEngine(const Policy& policy,
                                          const Dataset& data) {
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 4.0;
  auto engine = ReleaseEngine::Create(policy, data, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

TEST(OrderedOpsE2ETest, PinnedFamilyServesAtTheCumulativeChainBound) {
  // Line(8), G^P cells {0..3} / {4..7}, pinned #(x < 2): the FixtureA
  // of constrained_ops_e2e_test.cc. All three S_T ops must serve, all
  // three noised at the SAME sensitivity — the weighted chain bound
  // over the prefix-sum query, recomputed here through the public API.
  auto domain = LineDomain(8);
  Dataset data = MakeData(domain, 120);
  auto part = PartitionGraph::UniformGrid(domain, {2}).value();
  ConstraintSet cs;
  CountQuery low("low", [](ValueIndex x) { return x < 2; });
  const uint64_t answer = low.Evaluate(data);
  cs.AddWithAnswer(std::move(low), answer);
  Policy policy =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()),
                     std::move(cs))
          .value();

  CumulativeHistogramQuery query(domain->size());
  auto chain_bound = ConstrainedLinearQuerySensitivity(
      query, policy, kMaxEdges, kMaxPairs, kMaxVertices);
  ASSERT_TRUE(chain_bound.ok()) << chain_bound.status().ToString();
  EXPECT_GT(*chain_bound, 0.0);
  // ...and it must be a genuine chain bound: strictly above the
  // unconstrained closed form this policy's graph would give.
  auto unconstrained_form = CumulativeHistogramSensitivity(policy);
  ASSERT_TRUE(unconstrained_form.ok());
  EXPECT_GT(*chain_bound, *unconstrained_form);

  auto engine = MakeEngine(policy, data);
  auto responses = engine->ServeBatch(
      {Request("range", 0.25, {{"lo", "1"}, {"hi", "5"}}),
       Request("cdf", 0.25),
       Request("quantiles", 0.25, {{"qs", "0.1,0.5,0.9"}})});
  ASSERT_EQ(responses.size(), 3u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << "query " << i << ": " << responses[i].status.ToString();
    EXPECT_DOUBLE_EQ(responses[i].sensitivity, *chain_bound)
        << "query " << i;
  }
  EXPECT_EQ(responses[0].values.size(), 1u);
  EXPECT_EQ(responses[1].values.size(), domain->size());
  EXPECT_EQ(responses[2].values.size(), 3u);
  // The CDF post-processing is share-of-total: values stay in [0, 1]
  // and quantile indices stay inside the domain.
  for (double v : responses[1].values) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  for (double q : responses[2].values) {
    EXPECT_GE(q, 0.0);
    EXPECT_LT(q, static_cast<double>(domain->size()));
  }
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.75);
}

class OrderedOracleTest : public ::testing::TestWithParam<int> {};

// Randomized: the chain bound the ordered family now serves pinned
// policies at dominates the exhaustive Def 4.1 oracle for the
// cumulative histogram — the S_T mirror of the cell-histogram and
// value-weighted certificates in constrained_parallel_test.cc.
TEST_P(OrderedOracleTest, ConstrainedCumulativeBoundDominatesOracle) {
  Random rng(11000 + GetParam());
  const uint64_t n = 4 + GetParam() % 3;  // |T| in {4, 5, 6}
  auto domain = LineDomain(n);
  const uint64_t num_cells = 2;
  std::vector<uint64_t> cell_of(n);
  for (uint64_t x = 0; x < n; ++x) {
    cell_of[x] = x < num_cells
                     ? x
                     : static_cast<uint64_t>(rng.UniformInt(
                           0, static_cast<int64_t>(num_cells) - 1));
  }
  auto part = std::make_shared<const PartitionGraph>(
      n, [cell_of](ValueIndex x) { return cell_of[x]; }, "partition|test");
  // 1-2 pinned interval counts, answers drawn from a random dataset so
  // the constrained universe is non-empty.
  std::vector<ValueIndex> pin_tuples;
  for (size_t i = 0; i < 2; ++i) {
    pin_tuples.push_back(static_cast<ValueIndex>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
  }
  Dataset pin = Dataset::Create(domain, std::move(pin_tuples)).value();
  ConstraintSet cs;
  const int num_queries = rng.Bernoulli(0.5) ? 1 : 2;
  for (int q = 0; q < num_queries; ++q) {
    uint64_t lo = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    uint64_t hi = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    if (lo > hi) std::swap(lo, hi);
    CountQuery query("interval" + std::to_string(q),
                     [lo, hi](ValueIndex x) { return x >= lo && x <= hi; });
    const uint64_t answer = query.Evaluate(pin);
    cs.AddWithAnswer(std::move(query), answer);
  }
  Policy policy = Policy::Create(domain, part, std::move(cs)).value();

  CumulativeHistogramQuery query(n);
  auto analytic = ConstrainedLinearQuerySensitivity(
      query, policy, kMaxEdges, kMaxPairs, kMaxVertices);
  if (!analytic.ok()) {
    // Non-sparse draws are refused, never served unsoundly.
    EXPECT_EQ(analytic.status().code(), StatusCode::kFailedPrecondition);
    return;
  }
  auto cumulative = [](const Dataset& d) {
    std::vector<double> out(d.domain().size(), 0.0);
    for (ValueIndex t : d.tuples()) {
      for (ValueIndex j = t; j < d.domain().size(); ++j) out[j] += 1.0;
    }
    return out;
  };
  const double oracle =
      BruteForceSensitivity(policy, 2, 100000, cumulative).value();
  EXPECT_LE(oracle, *analytic + 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedOracleTest,
                         ::testing::Range(0, 25));

TEST(OrderedOpsE2ETest, HierRangeServesSupportedGraphsEndToEnd) {
  auto domain = LineDomain(32);
  Dataset data = MakeData(domain, 400, 19);

  // Line graph: theta = 1, S(S_T) = 1, the pure Ordered Mechanism
  // degeneration. Options (fanout, split, consistency) all round-trip
  // through the batch grammar.
  Policy line_policy =
      Policy::Create(domain, std::make_shared<LineGraph>(domain->size()))
          .value();
  auto line_engine = MakeEngine(line_policy, data);
  auto line_responses = line_engine->ServeBatch(ParseBatchRequests(
      "hier_range eps=0.25 lo=4 hi=20 label=plain\n"
      "hier_range eps=0.25 lo=4 hi=20 fanout=4 eps_s_fraction=0.5 "
      "consistency=1 label=tuned\n").value());
  ASSERT_EQ(line_responses.size(), 2u);
  for (const QueryResponse& r : line_responses) {
    ASSERT_TRUE(r.status.ok()) << r.label << ": " << r.status.ToString();
    ASSERT_EQ(r.values.size(), 1u);
    EXPECT_DOUBLE_EQ(r.sensitivity,
                     CumulativeHistogramSensitivity(line_policy).value());
    EXPECT_DOUBLE_EQ(r.sensitivity, 1.0);
  }

  // Full graph: the classical hierarchical degeneration still serves.
  Policy full_policy =
      Policy::Create(domain,
                     std::make_shared<FullGraph>(domain->size()))
          .value();
  auto full_engine = MakeEngine(full_policy, data);
  auto full_responses = full_engine->ServeBatch(ParseBatchRequests(
      "hier_range eps=0.25 lo=0 hi=15\n").value());
  ASSERT_EQ(full_responses.size(), 1u);
  ASSERT_TRUE(full_responses[0].status.ok())
      << full_responses[0].status.ToString();
  EXPECT_DOUBLE_EQ(full_responses[0].sensitivity,
                   CumulativeHistogramSensitivity(full_policy).value());
  EXPECT_GT(full_responses[0].sensitivity, 1.0);

  // Bad op arguments are parse errors, not admission errors.
  EXPECT_FALSE(ParseBatchRequests("hier_range eps=0.25 lo=0 hi=4 "
                                  "fanout=1\n").ok());
  EXPECT_FALSE(ParseBatchRequests("hier_range eps=0.25 lo=0 hi=4 "
                                  "consistency=2\n").ok());
}

TEST(OrderedOpsE2ETest, HierRangeRefusesUnsupportedGraphsPreCharge) {
  // A partition-graph tenant (no pinned constraints, so `range` serves
  // it) must get hier_range's refusal at ADMISSION — structured,
  // naming the supported graph kinds — with nothing charged, never a
  // charge/refund pair from an Execute-time mechanism error.
  auto domain = LineDomain(16);
  Dataset data = MakeData(domain, 100, 5);
  Policy policy = Policy::GridPartition(domain, {4}).value();
  auto engine = MakeEngine(policy, data);
  auto responses = engine->ServeBatch(
      {Request("hier_range", 0.25, {{"lo", "0"}, {"hi", "7"}}),
       Request("range", 0.25, {{"lo", "0"}, {"hi", "7"}})});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kUnimplemented);
  EXPECT_NE(responses[0].status.message().find("line, full"),
            std::string::npos)
      << responses[0].status.message();
  EXPECT_DOUBLE_EQ(responses[0].receipt.charged, 0.0);
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  // Only the served `range` touched the ledger.
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.25);
}

/// One `hier_range` answer from a fresh engine at `root_seed`, with the
/// spend it left on the default session.
struct HierRangeServed {
  QueryResponse response;
  double spent = 0.0;
};

HierRangeServed ServeHierRange(
    const Policy& policy, const Dataset& data, uint64_t root_seed,
    double eps, const std::vector<std::pair<std::string, std::string>>& kv) {
  ReleaseEngineOptions options;
  options.root_seed = root_seed;
  options.default_session_budget = 4.0;
  auto engine = ReleaseEngine::Create(policy, data, options).value();
  auto responses = engine->ServeBatch({Request("hier_range", eps, kv)});
  EXPECT_EQ(responses.size(), 1u);
  return {responses[0], engine->accountant().Spent("")};
}

TEST(OrderedOpsE2ETest, HierRangeNeverReleasesUnnoisedSNodes) {
  // G^{d,3} on 32 levels: theta = 3 cuts the domain into 11 blocks, and
  // the range [6, 8] is s_3 - s_2, two S nodes and nothing else. An S
  // share eps_S of 0 (a split of 0, or a subnormal split that underflows
  // against eps) would publish that count exactly, the same under every
  // root seed, at the full charge; a split of 1 leaves the block trees
  // unnoised. Each is refused, and nothing stays charged.
  auto domain = LineDomain(32);
  Dataset data = MakeData(domain, 400, 23);
  Policy policy =
      Policy::Create(domain, std::shared_ptr<const SecretGraph>(
                                 DistanceThresholdGraph::Create(domain, 3.0)
                                     .value()
                                     .release()))
          .value();
  const std::vector<std::pair<std::string, std::string>> range = {
      {"lo", "6"}, {"hi", "8"}};
  // The fixture's control: the default split noises the S nodes, so two
  // root seeds answer differently.
  const HierRangeServed first = ServeHierRange(policy, data, kSeed, 0.5, range);
  const HierRangeServed second =
      ServeHierRange(policy, data, kSeed + 1, 0.5, range);
  ASSERT_TRUE(first.response.status.ok()) << first.response.status.ToString();
  ASSERT_TRUE(second.response.status.ok());
  EXPECT_NE(first.response.values, second.response.values);

  struct Case {
    std::string fraction;
    double eps;
    bool pre_charge;  // refused by admission, not charged and refunded
  };
  for (const Case& c : {Case{"0", 0.5, true}, Case{"1", 0.5, true},
                        Case{"-0.5", 0.5, true}, Case{"1.5", 0.5, true},
                        // 4.9e-324 * 0.5 rounds to 0.
                        Case{"4.9e-324", 0.5, false},
                        // 4.9e-324 * 1 > 0, but 1 / eps_S is inf.
                        Case{"4.9e-324", 1.0, false}}) {
    for (const uint64_t seed : {kSeed, kSeed + 1}) {
      SCOPED_TRACE("eps_s_fraction=" + c.fraction + " eps=" +
                   std::to_string(c.eps) + " seed=" + std::to_string(seed));
      std::vector<std::pair<std::string, std::string>> kv = range;
      kv.emplace_back("eps_s_fraction", c.fraction);
      const HierRangeServed served =
          ServeHierRange(policy, data, seed, c.eps, kv);
      EXPECT_EQ(served.response.status.code(), StatusCode::kInvalidArgument)
          << served.response.status.ToString();
      EXPECT_TRUE(served.response.values.empty());
      EXPECT_EQ(served.response.receipt.refunded, !c.pre_charge);
      if (c.pre_charge) {
        EXPECT_DOUBLE_EQ(served.response.receipt.charged, 0.0);
      }
      EXPECT_DOUBLE_EQ(served.spent, 0.0);
    }
  }

  // A split inside (0, 1) still serves.
  std::vector<std::pair<std::string, std::string>> kv = range;
  kv.emplace_back("eps_s_fraction", "0.5");
  const HierRangeServed tuned = ServeHierRange(policy, data, kSeed, 0.5, kv);
  ASSERT_TRUE(tuned.response.status.ok()) << tuned.response.status.ToString();
  EXPECT_DOUBLE_EQ(tuned.spent, 0.5);
}

TEST(OrderedOpsE2ETest, HierRangeServesAFanoutPastTheDomain) {
  // The widest fanout made IntervalTree::Build wrap to an empty root
  // level, and the release read past it. A fanout at or past |T| is the
  // one-level tree: the root over the leaves.
  auto domain = LineDomain(8);
  Dataset data = MakeData(domain, 100, 29);
  Policy policy =
      Policy::Create(domain, std::make_shared<FullGraph>(domain->size()))
          .value();
  for (const std::string fanout :
       {"8", "16", "9223372036854775808", "18446744073709551615"}) {
    SCOPED_TRACE("fanout=" + fanout);
    const HierRangeServed served = ServeHierRange(
        policy, data, kSeed, 0.5, {{"lo", "1"}, {"hi", "5"}, {"fanout", fanout}});
    ASSERT_TRUE(served.response.status.ok())
        << served.response.status.ToString();
    ASSERT_EQ(served.response.values.size(), 1u);
    EXPECT_TRUE(std::isfinite(served.response.values[0]));
  }
}

}  // namespace
}  // namespace blowfish
