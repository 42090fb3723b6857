#include "core/policy_graph.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/neighbors.h"
#include "core/policy.h"

namespace blowfish {
namespace {

constexpr uint64_t kMaxEdges = uint64_t{1} << 22;

std::shared_ptr<const Domain> MakeDomain223() {
  return std::make_shared<const Domain>(
      Domain::Create({Attribute{"A1", 2, 1.0}, Attribute{"A2", 2, 1.0},
                      Attribute{"A3", 3, 1.0}})
          .value());
}

// The worked example of Sec 8 (Figure 3): domain 2x2x3, constraint = the
// [A1, A2] marginal (4 count queries), full-domain secrets.
class Example8Test : public ::testing::Test {
 protected:
  void SetUp() override {
    dom_ = MakeDomain223();
    ASSERT_TRUE(constraints_.AddMarginal(dom_, Marginal{{0, 1}}).ok());
    graph_ = std::make_shared<FullGraph>(dom_->size());
  }
  std::shared_ptr<const Domain> dom_;
  ConstraintSet constraints_;
  std::shared_ptr<FullGraph> graph_;
};

TEST_F(Example8Test, BuildSucceedsAndIsSparse) {
  EXPECT_TRUE(PolicyGraph::Build(constraints_, *graph_, kMaxEdges).ok());
}

TEST_F(Example8Test, StructureMatchesFigure3) {
  PolicyGraph pg =
      PolicyGraph::Build(constraints_, *graph_, kMaxEdges).value();
  EXPECT_EQ(pg.num_queries(), 4u);
  // Every ordered pair of distinct marginal cells is an edge (a move
  // lowers the source cell and lifts the target cell), so the query part
  // is a complete digraph; plus the mandatory (v+, v-) edge; and no other
  // edges touch v+/v-.
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = 0; b < 4; ++b) {
      EXPECT_EQ(pg.HasEdge(a, b), a != b) << a << "->" << b;
    }
    EXPECT_FALSE(pg.HasEdge(pg.v_plus(), a));
    EXPECT_FALSE(pg.HasEdge(a, pg.v_minus()));
  }
  EXPECT_TRUE(pg.HasEdge(pg.v_plus(), pg.v_minus()));
}

TEST_F(Example8Test, AlphaIs4AndXiIs1) {
  PolicyGraph pg =
      PolicyGraph::Build(constraints_, *graph_, kMaxEdges).value();
  EXPECT_EQ(pg.LongestSimpleCycle().value(), 4u);       // Example 8.2
  EXPECT_EQ(pg.LongestSourceSinkPath().value(), 1u);    // just (v+, v-)
  EXPECT_DOUBLE_EQ(pg.HistogramSensitivityBound().value(), 8.0);  // Ex 8.3
}

TEST_F(Example8Test, MatchesClosedFormTheorem84) {
  EXPECT_DOUBLE_EQ(
      MarginalFullDomainSensitivity(*dom_, Marginal{{0, 1}}).value(), 8.0);
}

// Thm 8.2 equality vs the brute-force Def 5.1 oracle on a tiny domain:
// 1-D domain of 4 values, constraint = count of the lower half, full
// secrets. Policy graph: one query; moves 0/1 <-> 2/3 lower/lift it.
TEST(PolicyGraphOracleTest, SingleCountQueryMatchesBruteForce) {
  auto dom = std::make_shared<const Domain>(Domain::Line(4).value());
  ConstraintSet q;
  q.AddWithAnswer(CountQuery("low", [](ValueIndex x) { return x < 2; }), 1);
  auto graph = std::make_shared<FullGraph>(4);
  PolicyGraph pg = PolicyGraph::Build(q, *graph, kMaxEdges).value();
  double bound = pg.HistogramSensitivityBound().value();

  Policy p = Policy::Create(dom, graph, std::move(q)).value();
  auto hist = [](const Dataset& d) {
    std::vector<double> h(d.domain().size(), 0.0);
    for (ValueIndex t : d.tuples()) h[t] += 1.0;
    return h;
  };
  double brute = BruteForceSensitivity(p, 2, 10000, hist).value();
  // A neighbour swaps one tuple to the other side and one back: 4 buckets
  // change by 1 -> S(h,P) = 4 = 2 * max{alpha=2, xi=1}.
  EXPECT_DOUBLE_EQ(brute, 4.0);
  EXPECT_DOUBLE_EQ(bound, 4.0);
}

// The E(G)-only formula is not a release calibration: on Line(6) under
// the line graph with pinned thresholds #(x < 2) = 1 and #(x < 4) = 2, a
// neighbour's compensating move may jump a non-edge pair, and the Def
// 4.1 oracle over three tuples reaches 6 while 2 max{alpha, xi} is 4.
TEST(PolicyGraphOracleTest, EdgeOnlyBoundBelowOracleOffEdge) {
  auto dom = std::make_shared<const Domain>(Domain::Line(6).value());
  ConstraintSet q;
  q.AddWithAnswer(CountQuery("lt2", [](ValueIndex x) { return x < 2; }), 1);
  q.AddWithAnswer(CountQuery("lt4", [](ValueIndex x) { return x < 4; }), 2);
  auto graph = std::make_shared<LineGraph>(6);
  PolicyGraph pg = PolicyGraph::Build(q, *graph, kMaxEdges).value();
  EXPECT_DOUBLE_EQ(pg.HistogramSensitivityBound().value(), 4.0);

  Policy p = Policy::Create(dom, graph, std::move(q)).value();
  auto hist = [](const Dataset& d) {
    std::vector<double> h(d.domain().size(), 0.0);
    for (ValueIndex t : d.tuples()) h[t] += 1.0;
    return h;
  };
  EXPECT_DOUBLE_EQ(BruteForceSensitivity(p, 3, 100000, hist).value(), 6.0);
}

TEST(PolicyGraphTest, NonSparseRejected) {
  ConstraintSet q;
  q.Add(CountQuery("ge5", [](ValueIndex x) { return x >= 5; }));
  q.Add(CountQuery("ge7", [](ValueIndex x) { return x >= 7; }));
  FullGraph g(10);
  auto result = PolicyGraph::Build(q, g, kMaxEdges);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PolicyGraphTest, EmptyConstraintsGiveJustVPlusVMinus) {
  ConstraintSet q;
  FullGraph g(4);
  PolicyGraph pg = PolicyGraph::Build(q, g, kMaxEdges).value();
  EXPECT_EQ(pg.num_queries(), 0u);
  EXPECT_EQ(pg.LongestSimpleCycle().value(), 0u);
  EXPECT_EQ(pg.LongestSourceSinkPath().value(), 1u);
  // Bound degenerates to 2 — the unconstrained histogram sensitivity.
  EXPECT_DOUBLE_EQ(pg.HistogramSensitivityBound().value(), 2.0);
}

TEST(PolicyGraphTest, SizeLimitEnforced) {
  // 30 disjoint point queries on a line domain of 30.
  ConstraintSet q;
  for (uint64_t v = 0; v < 30; ++v) {
    q.Add(CountQuery("pt" + std::to_string(v),
                     [v](ValueIndex x) { return x == v; }));
  }
  FullGraph g(30);
  PolicyGraph pg = PolicyGraph::Build(q, g, kMaxEdges).value();
  EXPECT_EQ(pg.LongestSimpleCycle(24).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(PolicyGraphTest, CorollaryBound) {
  EXPECT_DOUBLE_EQ(HistogramSensitivityCorollaryBound(0), 2.0);
  EXPECT_DOUBLE_EQ(HistogramSensitivityCorollaryBound(5), 10.0);
}

// Corollary 8.3 dominates the exact Thm 8.2 bound whenever both apply.
TEST(PolicyGraphTest, CorollaryBoundDominatesExact) {
  auto dom = MakeDomain223();
  ConstraintSet q;
  ASSERT_TRUE(q.AddMarginal(dom, Marginal{{2}}).ok());  // 3 queries
  FullGraph g(dom->size());
  PolicyGraph pg = PolicyGraph::Build(q, g, kMaxEdges).value();
  EXPECT_LE(pg.HistogramSensitivityBound().value(),
            HistogramSensitivityCorollaryBound(q.size()));
}

// --- Thm 8.4 / 8.5 closed forms ---

TEST(MarginalSensitivityTest, Theorem84Values) {
  auto dom = MakeDomain223();
  EXPECT_DOUBLE_EQ(
      MarginalFullDomainSensitivity(*dom, Marginal{{0}}).value(), 4.0);
  EXPECT_DOUBLE_EQ(
      MarginalFullDomainSensitivity(*dom, Marginal{{2}}).value(), 6.0);
  EXPECT_DOUBLE_EQ(
      MarginalFullDomainSensitivity(*dom, Marginal{{0, 1}}).value(), 8.0);
  // [C] = all attributes pins the histogram: S = 0.
  EXPECT_DOUBLE_EQ(
      MarginalFullDomainSensitivity(*dom, Marginal{{0, 1, 2}}).value(), 0.0);
  EXPECT_FALSE(MarginalFullDomainSensitivity(*dom, Marginal{{}}).ok());
  EXPECT_FALSE(MarginalFullDomainSensitivity(*dom, Marginal{{0, 0}}).ok());
}

TEST(MarginalSensitivityTest, Theorem85DisjointMarginals) {
  auto dom = MakeDomain223();
  // C1 = [A1] (size 2), C2 = [A3] (size 3): S = 2 * max = 6.
  EXPECT_DOUBLE_EQ(DisjointMarginalsAttributeSensitivity(
                       *dom, {Marginal{{0}}, Marginal{{2}}})
                       .value(),
                   6.0);
  // Overlapping marginals rejected.
  EXPECT_FALSE(DisjointMarginalsAttributeSensitivity(
                   *dom, {Marginal{{0, 1}}, Marginal{{1}}})
                   .ok());
  EXPECT_FALSE(DisjointMarginalsAttributeSensitivity(*dom, {}).ok());
}

// Thm 8.5 vs brute force: 2x2 domain, marginals [A1] and [A2] (disjoint),
// attribute secrets.
TEST(MarginalSensitivityTest, Theorem85MatchesBruteForce) {
  auto dom = std::make_shared<const Domain>(
      Domain::Create({Attribute{"A1", 2, 1.0}, Attribute{"A2", 2, 1.0}})
          .value());
  ConstraintSet q;
  // Pin both marginals on a 2-tuple dataset: {(0,0), (1,1)}.
  Dataset d =
      Dataset::Create(dom, {dom->Encode({0, 0}), dom->Encode({1, 1})})
          .value();
  ASSERT_TRUE(q.AddMarginal(dom, Marginal{{0}}, &d).ok());
  ASSERT_TRUE(q.AddMarginal(dom, Marginal{{1}}, &d).ok());
  Policy p = Policy::Create(dom, std::make_shared<AttributeGraph>(dom),
                            std::move(q))
                 .value();
  auto hist = [](const Dataset& dd) {
    std::vector<double> h(dd.domain().size(), 0.0);
    for (ValueIndex t : dd.tuples()) h[t] += 1.0;
    return h;
  };
  double brute = BruteForceSensitivity(p, 2, 10000, hist).value();
  double closed = DisjointMarginalsAttributeSensitivity(
                      *dom, {Marginal{{0}}, Marginal{{1}}})
                      .value();
  EXPECT_DOUBLE_EQ(closed, 4.0);  // 2 * max(size) = 2 * 2
  EXPECT_DOUBLE_EQ(brute, closed);
}

// --- Thm 8.6: rectangles on a grid ---

TEST(RectangleSensitivityTest, MaxComponentUnionFind) {
  auto dom = std::make_shared<const Domain>(Domain::Grid(20, 2).value());
  // Chain: A near B (gap 2), B near C (gap 2), D far away.
  std::vector<Rectangle> rects = {
      Rectangle{{0, 0}, {2, 2}},     // A
      Rectangle{{5, 0}, {6, 2}},     // B: d(A,B) = 3
      Rectangle{{9, 0}, {10, 2}},    // C: d(B,C) = 3
      Rectangle{{0, 15}, {2, 17}},   // D: far from all
  };
  EXPECT_EQ(MaxRectangleComponent(*dom, rects, 3.0).value(), 3u);
  EXPECT_EQ(MaxRectangleComponent(*dom, rects, 2.0).value(), 1u);
  EXPECT_EQ(MaxRectangleComponent(*dom, rects, 100.0).value(), 4u);
}

TEST(RectangleSensitivityTest, Theorem86Bound) {
  auto dom = std::make_shared<const Domain>(Domain::Grid(20, 2).value());
  std::vector<Rectangle> rects = {
      Rectangle{{0, 0}, {2, 2}},
      Rectangle{{5, 0}, {6, 2}},
  };
  // theta = 3 connects them: S = 2 (2 + 1) = 6.
  EXPECT_DOUBLE_EQ(RectangleDistanceSensitivity(*dom, rects, 3.0).value(),
                   6.0);
  // theta = 2 leaves them apart: S = 2 (1 + 1) = 4.
  EXPECT_DOUBLE_EQ(RectangleDistanceSensitivity(*dom, rects, 2.0).value(),
                   4.0);
  // Intersecting rectangles rejected.
  std::vector<Rectangle> overlapping = {Rectangle{{0, 0}, {3, 3}},
                                        Rectangle{{2, 2}, {5, 5}}};
  EXPECT_FALSE(RectangleDistanceSensitivity(*dom, overlapping, 1.0).ok());
}

// Thm 8.6 vs brute force on a small 1-D grid: two disjoint ranges with
// pinned counts, distance-threshold secrets.
TEST(RectangleSensitivityTest, Theorem86MatchesBruteForceSmall) {
  auto dom = std::make_shared<const Domain>(Domain::Line(6).value());
  // Rectangles [0,1] and [3,4]; gap = 2.
  std::vector<Rectangle> rects = {Rectangle{{0}, {1}}, Rectangle{{3}, {4}}};
  Dataset d = Dataset::Create(dom, {0, 3}).value();
  ConstraintSet q;
  ASSERT_TRUE(q.AddRectangles(dom, rects, &d).ok());
  // theta = 2 connects the rectangles (gap exactly 2).
  Policy p = Policy::Create(
                 dom,
                 std::shared_ptr<const SecretGraph>(
                     DistanceThresholdGraph::Create(dom, 2.0)
                         .value()
                         .release()),
                 std::move(q))
                 .value();
  auto hist = [](const Dataset& dd) {
    std::vector<double> h(dd.domain().size(), 0.0);
    for (ValueIndex t : dd.tuples()) h[t] += 1.0;
    return h;
  };
  double brute = BruteForceSensitivity(p, 2, 10000, hist).value();
  double bound = RectangleDistanceSensitivity(*dom, rects, 2.0).value();
  EXPECT_DOUBLE_EQ(bound, 6.0);  // 2 * (maxcomp=2 + 1)
  // The bound must dominate the exact sensitivity.
  EXPECT_LE(brute, bound);
  EXPECT_GT(brute, 0.0);
}

}  // namespace
}  // namespace blowfish
