// `hier_range` — range counts via the Ordered Hierarchical (OH) hybrid
// mechanism (Sec 7.2, Fig 2(a)), mech/ordered_hierarchical.h.
//
//   hier_range eps=0.3 lo=5 hi=40 [fanout=] [eps_s_fraction=]
//              [consistency=] [label=] [session=]
//
// The hybrid cuts the 1-D ordered domain into theta-sized blocks: S
// nodes carry block-boundary prefixes (sensitivity 1 under G^{d,theta}),
// fan-out-f H subtrees answer intra-block prefixes. theta = scale
// degenerates to the Ordered Mechanism, theta = |T| to the classical
// hierarchical mechanism; Eqn 15 picks the optimal budget split when
// eps_s_fraction is not given.
//
// Pinned-constrained policies are refused with a structured status: the
// OH budget split calibrates each node class to the per-move distance
// bound (a single move crosses <= 1 block boundary and <= 2h H nodes),
// and a pinned-constrained neighbour step's compensating moves have no
// per-move distance bound — a chain can cross every block. No sound
// per-node recalibration exists short of noising every node to the
// whole-chain bound, which is strictly worse than `range` (the Ordered
// Mechanism) at the same epsilon; docs/engine.md documents the
// obstruction and routes constrained tenants to `range`.
//
// The op still shares the "S_T" cache shape with the ordered family:
// on the policies it accepts (unpinned), ComputeSensitivity is the
// identical computation (the shape-cache contract).

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/sensitivity.h"
#include "engine/ops/query_op.h"
#include "mech/ordered_hierarchical.h"

namespace blowfish {
namespace {

class HierRangeOp final : public QueryOp {
 public:
  std::string KindName() const override { return "hier_range"; }
  std::string ExampleArgs() const override { return "lo=0 hi=1"; }

  Status Parse(KeyValueBag& kv) override {
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("lo", &lo_));
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("hi", &hi_));
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("fanout", &options_.fanout));
    // TakeDouble writes only a finite value, so NaN means "not given".
    double fraction = std::numeric_limits<double>::quiet_NaN();
    BLOWFISH_RETURN_IF_ERROR(kv.TakeDouble("eps_s_fraction", &fraction));
    fraction_given_ = !std::isnan(fraction);
    if (fraction_given_) options_.eps_s_fraction = fraction;
    std::optional<std::string> consistency = kv.Take("consistency");
    if (consistency.has_value()) {
      if (*consistency == "1" || *consistency == "true") {
        options_.consistency = true;
      } else if (*consistency == "0" || *consistency == "false") {
        options_.consistency = false;
      } else {
        return Status::InvalidArgument(
            "'consistency' must be 0/1/true/false " + kv.context());
      }
    }
    if (options_.fanout < 2) {
      return Status::InvalidArgument(
          "'fanout' must be at least 2 " + kv.context());
    }
    return Status::OK();
  }

  Status Validate(const Policy& policy) const override {
    if (policy.domain().num_attributes() != 1) {
      return Status::InvalidArgument(
          "op 'hier_range' requires a 1-D ordered domain");
    }
    if (policy.has_constraints() && policy.constraints().AnyPinned()) {
      // The documented obstruction (see the file header): the OH
      // per-node budget split relies on a per-move distance bound that
      // pinned-constrained chains do not have. `range` serves these
      // policies via the whole-chain bound.
      return ConstrainedPolicyUnsupported(*this, policy);
    }
    // The mechanism resolves theta from the graph kind (line, full,
    // G^{d,theta}); any other graph must refuse HERE, pre-charge, not
    // from Execute after the budget was spent. The FailedPrecondition
    // ("theta below the domain resolution") case passes: an edgeless
    // graph has S = 0 and Execute releases the exact count for free.
    StatusOr<size_t> theta =
        OrderedHierarchicalMechanism::ResolveThetaSteps(policy);
    if (theta.status().code() == StatusCode::kUnimplemented) {
      return theta.status();
    }
    // With 1 < theta < |T| the budget is split between the S nodes and
    // the block trees, and a split of 0 or 1 leaves one class unnoised
    // (Release refuses that too, but only after the charge).
    if (fraction_given_ && theta.ok() && *theta > 1 &&
        *theta < policy.domain().size() &&
        !(options_.eps_s_fraction > 0.0 && options_.eps_s_fraction < 1.0)) {
      return Status::InvalidArgument(
          "'eps_s_fraction' must be in (0, 1) for op 'hier_range' when "
          "1 < theta < |T|");
    }
    return ValidateRangeInDomain(*this, policy, lo_, hi_);
  }

  StatusOr<std::string> SensitivityShape() const override {
    return std::string("S_T");
  }

  StatusOr<double> ComputeSensitivity(
      const Policy& policy, const SensitivityEnv& env) const override {
    // Identical to the ordered family (shared "S_T" shape). The pinned
    // branch is unreachable behind Validate's refusal but must stay in
    // lockstep so the shape-cache contract holds structurally.
    if (policy.has_constraints() && policy.constraints().AnyPinned()) {
      CumulativeHistogramQuery query(policy.domain().size());
      return ConstrainedLinearQuerySensitivity(
          query, policy, env.max_edges, env.max_pairs,
          env.max_policy_graph_vertices);
    }
    return CumulativeHistogramSensitivity(policy);
  }

  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    if (ctx.sensitivity == 0.0) {
      // Free release: an edgeless graph (theta < scale) never moves
      // mass, so the exact range count can be published.
      BLOWFISH_ASSIGN_OR_RETURN(double exact, ctx.hist.RangeSum(lo_, hi_));
      return std::vector<double>{exact};
    }
    BLOWFISH_ASSIGN_OR_RETURN(
        OrderedHierarchicalMechanism released,
        OrderedHierarchicalMechanism::Release(ctx.hist, ctx.policy,
                                              ctx.epsilon, options_, rng));
    BLOWFISH_ASSIGN_OR_RETURN(double answer, released.RangeQuery(lo_, hi_));
    return std::vector<double>{answer};
  }

 private:
  size_t lo_ = 0;
  size_t hi_ = 0;
  OrderedHierarchicalOptions options_;
  bool fraction_given_ = false;
};

const QueryOpRegistrar kRegistrar{
    "hier_range", [] { return std::make_unique<HierRangeOp>(); }};

}  // namespace
}  // namespace blowfish
