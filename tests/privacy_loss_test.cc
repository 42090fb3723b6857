#include "core/privacy_loss.h"

#include <gtest/gtest.h>

#include <memory>

namespace blowfish {
namespace {

// The paper's closing example of Sec 4.1: G has two disconnected
// components S and T\S, and the constraints count tuples in S and in T\S.
// No edge of G crosses the component boundary, so crit(q) is empty for
// both constraints and parallel composition is valid.
TEST(ParallelCompositionTest, ComponentCountsAreSafe) {
  auto dom = std::make_shared<const Domain>(Domain::Line(6).value());
  auto part = PartitionGraph::UniformGrid(dom, {2}).value();  // {0-2},{3-5}
  ConstraintSet q;
  q.Add(CountQuery("in_S", [](ValueIndex x) { return x < 3; }));
  q.Add(CountQuery("in_TS", [](ValueIndex x) { return x >= 3; }));
  Policy p =
      Policy::Create(dom,
                     std::shared_ptr<const SecretGraph>(part.release()),
                     std::move(q))
          .value();
  EXPECT_TRUE(ParallelCompositionValid(p, uint64_t{1} << 20).value());
}

// The gender example of Sec 4.1: full-domain secrets plus a constraint
// whose answer an edge can change -> crit(q) non-empty -> not safe.
TEST(ParallelCompositionTest, CrossCuttingConstraintUnsafe) {
  auto dom = std::make_shared<const Domain>(Domain::Line(6).value());
  ConstraintSet q;
  q.Add(CountQuery("males", [](ValueIndex x) { return x < 3; }));
  Policy p = Policy::Create(dom, std::make_shared<FullGraph>(6),
                            std::move(q))
                 .value();
  EXPECT_FALSE(ParallelCompositionValid(p, uint64_t{1} << 20).value());
}

TEST(ParallelCompositionTest, NoConstraintsAlwaysSafe) {
  auto dom = std::make_shared<const Domain>(Domain::Line(6).value());
  Policy p = Policy::FullDomain(dom).value();
  EXPECT_TRUE(ParallelCompositionValid(p, uint64_t{1} << 20).value());
}

}  // namespace
}  // namespace blowfish
