// The Laplace mechanism, calibrated to policy-specific sensitivity
// (Def 2.3 and Thm 5.1).
//
// Releasing f(D) + Lap(S(f, P)/eps)^d satisfies (eps, P)-Blowfish privacy.
// With S(f) the ordinary global sensitivity (complete-graph policy) this
// is the classic eps-differentially-private Laplace mechanism — the
// baseline in every experiment of the paper.

#ifndef BLOWFISH_MECH_LAPLACE_H_
#define BLOWFISH_MECH_LAPLACE_H_

#include <vector>

#include "core/policy.h"
#include "core/sensitivity.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace blowfish {

/// Adds independent Lap(sensitivity/epsilon) noise to each component.
/// sensitivity == 0 releases the exact answer (the policy puts no secret
/// pair across the query, e.g. a partitioned histogram under G^P).
StatusOr<std::vector<double>> LaplaceRelease(
    const std::vector<double>& true_answer, double sensitivity,
    double epsilon, Random& rng);

/// End-to-end (eps, P)-Blowfish release of a linear query on a histogram:
/// computes S(f, P) with the generic unconstrained engine, evaluates the
/// query, and perturbs. Requires an unconstrained policy; constrained
/// policies are served by ReleaseEngine (engine/release_engine.h), whose
/// ops calibrate to the oracle-checked constrained bounds.
StatusOr<std::vector<double>> LaplaceMechanism(const LinearQuery& query,
                                               const Policy& policy,
                                               const Histogram& data,
                                               double epsilon, Random& rng,
                                               uint64_t max_edges = uint64_t{1}
                                                                    << 26);

}  // namespace blowfish

#endif  // BLOWFISH_MECH_LAPLACE_H_
