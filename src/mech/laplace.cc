#include "mech/laplace.h"

namespace blowfish {

StatusOr<std::vector<double>> LaplaceRelease(
    const std::vector<double>& true_answer, double sensitivity,
    double epsilon, Random& rng) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (sensitivity < 0.0) {
    return Status::InvalidArgument("sensitivity must be non-negative");
  }
  std::vector<double> out = true_answer;
  if (sensitivity == 0.0) return out;  // nothing to protect
  const double scale = sensitivity / epsilon;
  for (double& v : out) v += rng.Laplace(scale);
  return out;
}

StatusOr<std::vector<double>> LaplaceMechanism(const LinearQuery& query,
                                               const Policy& policy,
                                               const Histogram& data,
                                               double epsilon, Random& rng,
                                               uint64_t max_edges) {
  if (policy.has_constraints()) {
    return Status::FailedPrecondition(
        "LaplaceMechanism serves unconstrained policies only; serve "
        "constrained policies through ReleaseEngine "
        "(engine/release_engine.h)");
  }
  BLOWFISH_ASSIGN_OR_RETURN(
      double sensitivity,
      UnconstrainedSensitivity(query, policy.graph(), max_edges));
  return LaplaceRelease(query.Evaluate(data), sensitivity, epsilon, rng);
}

}  // namespace blowfish
