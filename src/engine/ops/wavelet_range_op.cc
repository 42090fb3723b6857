// `wavelet_range` — range counts via the Haar-wavelet (Privelet-style)
// mechanism, mech/wavelet.h.
//
//   wavelet_range eps=0.3 lo=5 hi=40 [label=] [session=]
//
// The wavelet mechanism is the full-domain-secrets baseline of Sec 7:
// it is eps-differentially private with *replacement* neighbours, which
// subsumes moving a tuple along any edge of any unconstrained secret
// graph G, so the release is (eps, P)-Blowfish private for every
// unconstrained policy without policy-specific recalibration. Its
// O(log^3 |T| / eps^2) range error is the comparison point for the
// Ordered Mechanism's O(1/eps^2); serving both behind one request
// format is what makes the comparison one batch file.
//
// Constrained policies are served by *group privacy*: a constrained
// neighbour step is a chain of at most S(h, P) / 2 moves (the Thm 8.2
// bound), each of which is one replacement, and an eps'-DP mechanism is
// (k eps')-indistinguishable across k replacements. Running the wavelet
// mechanism at eps' = eps * 2 / S(h, P) therefore yields (eps, P)-
// Blowfish privacy. Unconstrained policies have S(h, P) = 2, so the
// scale factor is exactly 1 and their releases are bit-identical to the
// pre-constraint behaviour. An edgeless graph releases the exact range
// for free, matching the engine's zero-sensitivity convention.
//
// Before the QueryOp registry this mechanism existed in mech/ but was
// unreachable from the serving path; the op is one file, with zero
// engine edits.

#include <memory>
#include <string>
#include <vector>

#include "core/sensitivity.h"
#include "engine/ops/query_op.h"
#include "mech/wavelet.h"

namespace blowfish {
namespace {

class WaveletRangeOp final : public QueryOp {
 public:
  std::string KindName() const override { return "wavelet_range"; }
  std::string ExampleArgs() const override { return "lo=0 hi=1"; }

  Status Parse(KeyValueBag& kv) override {
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("lo", &lo_));
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("hi", &hi_));
    return Status::OK();
  }

  Status Validate(const Policy& policy) const override {
    if (policy.domain().num_attributes() != 1) {
      return Status::InvalidArgument(
          "wavelet_range requires a 1-D ordered domain");
    }
    return ValidateRangeInDomain(*this, policy, lo_, hi_);
  }

  StatusOr<std::string> SensitivityShape() const override {
    return std::string("wavelet");
  }

  StatusOr<double> ComputeSensitivity(
      const Policy& policy, const SensitivityEnv& env) const override {
    if (!policy.has_constraints() || !policy.constraints().AnyPinned()) {
      // The mechanism calibrates internally per coefficient; the engine
      // only needs the free-release signal (edgeless graph -> 0) and a
      // reported figure, for which the histogram sensitivity serves.
      return HistogramSensitivity(policy.graph());
    }
    // Constrained: the Thm 8.2 histogram bound 2 * max{alpha, xi}; half
    // of it is the move count the group-privacy scaling in Execute
    // divides epsilon by.
    CompleteHistogramQuery h(policy.domain().size());
    return ConstrainedLinearQuerySensitivity(
        h, policy, env.max_edges, env.max_pairs,
        env.max_policy_graph_vertices);
  }

  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    if (ctx.sensitivity == 0.0) {
      BLOWFISH_ASSIGN_OR_RETURN(double exact,
                                ctx.hist.RangeSum(lo_, hi_));
      return std::vector<double>{exact};
    }
    // Group privacy: a neighbour step is at most sensitivity / 2
    // replacements, so scale the internal eps-DP budget down by that
    // move count. Unconstrained policies (sensitivity 2) scale by 1 —
    // their output stays bit-identical.
    const double epsilon = ctx.sensitivity > 2.0
                               ? ctx.epsilon * (2.0 / ctx.sensitivity)
                               : ctx.epsilon;
    BLOWFISH_ASSIGN_OR_RETURN(
        WaveletMechanism released,
        WaveletMechanism::Release(ctx.hist, epsilon, rng));
    BLOWFISH_ASSIGN_OR_RETURN(double answer, released.RangeQuery(lo_, hi_));
    return std::vector<double>{answer};
  }

 private:
  size_t lo_ = 0;
  size_t hi_ = 0;
};

const QueryOpRegistrar kRegistrar{
    "wavelet_range", [] { return std::make_unique<WaveletRangeOp>(); }};

}  // namespace
}  // namespace blowfish
