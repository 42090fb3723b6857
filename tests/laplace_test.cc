#include "mech/laplace.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "util/stats.h"

namespace blowfish {
namespace {

TEST(LaplaceReleaseTest, ZeroSensitivityIsExact) {
  Random rng(1);
  std::vector<double> truth = {1.0, 2.0, 3.0};
  auto out = LaplaceRelease(truth, 0.0, 0.5, rng).value();
  EXPECT_EQ(out, truth);
}

TEST(LaplaceReleaseTest, Validation) {
  Random rng(1);
  EXPECT_FALSE(LaplaceRelease({1.0}, 1.0, 0.0, rng).ok());
  EXPECT_FALSE(LaplaceRelease({1.0}, 1.0, -0.5, rng).ok());
  EXPECT_FALSE(LaplaceRelease({1.0}, -1.0, 0.5, rng).ok());
}

TEST(LaplaceReleaseTest, NoiseVarianceMatchesCalibration) {
  Random rng(42);
  const double sensitivity = 2.0, eps = 0.5;
  const double scale = sensitivity / eps;
  std::vector<double> errors;
  for (int i = 0; i < 20000; ++i) {
    auto out = LaplaceRelease({10.0}, sensitivity, eps, rng).value();
    errors.push_back(out[0] - 10.0);
  }
  EXPECT_NEAR(Mean(errors), 0.0, 0.1);
  EXPECT_NEAR(Variance(errors), 2.0 * scale * scale, 1.5);
}

TEST(LaplaceMechanismTest, HistogramUnderLinePolicy) {
  auto dom = std::make_shared<const Domain>(Domain::Line(8).value());
  Policy p = Policy::Line(dom).value();
  Histogram data({5, 0, 0, 3, 0, 0, 0, 2});
  CompleteHistogramQuery q(8);
  Random rng(3);
  auto out = LaplaceMechanism(q, p, data, 1.0, rng).value();
  EXPECT_EQ(out.size(), 8u);
}

TEST(LaplaceMechanismTest, PartitionedHistogramUnderPartitionPolicyIsExact) {
  auto dom = std::make_shared<const Domain>(Domain::Line(8).value());
  Policy p = Policy::GridPartition(dom, {2}).value();
  Histogram data({5, 0, 0, 3, 0, 0, 0, 2});
  const auto* part = dynamic_cast<const PartitionGraph*>(&p.graph());
  ASSERT_NE(part, nullptr);
  PartitionedHistogramQuery q(
      [part](ValueIndex x) { return part->CellOf(x); }, 2);
  Random rng(3);
  // Sensitivity is 0 under the matching partition policy: exact release.
  auto out = LaplaceMechanism(q, p, data, 1.0, rng).value();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 8.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(LaplaceMechanismTest, RejectsConstrainedPolicy) {
  auto dom = std::make_shared<const Domain>(Domain::Line(4).value());
  ConstraintSet cs;
  cs.Add(CountQuery("low", [](ValueIndex x) { return x < 2; }));
  Policy p = Policy::Create(dom, std::make_shared<FullGraph>(4),
                            std::move(cs))
                 .value();
  CompleteHistogramQuery q(4);
  Random rng(3);
  Histogram data(4);
  const Status refused = LaplaceMechanism(q, p, data, 1.0, rng).status();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  // The refusal names the one constrained release path.
  EXPECT_NE(refused.message().find("ReleaseEngine"), std::string::npos)
      << refused.message();
}

}  // namespace
}  // namespace blowfish
