// `histogram` — the complete histogram h, the workhorse release of Sec 5.
//
//   histogram eps=0.5 [label=] [session=]
//
// Unconstrained policies use the closed form S(h, P) = 2 (0 for an
// edgeless graph); pinned-constrained policies pay the weighted
// all-pairs Thm 8.2 chain bound (core/sensitivity.h,
// ConstrainedLinearQuerySensitivity) — the NP-hard computation the
// SensitivityCache exists for. The paper-literal E(G)-only PolicyGraph
// bound is NOT used here: it misses compensating moves along non-edges
// (e.g. two pinned threshold constraints whose q1 -> q2 transition is
// realized only by non-edge pairs), under-calibrating the noise
// against the Def 4.1 oracle.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sensitivity.h"
#include "engine/ops/query_op.h"
#include "mech/laplace.h"

namespace blowfish {
namespace {

class HistogramOp final : public QueryOp {
 public:
  std::string KindName() const override { return "histogram"; }

  Status Parse(KeyValueBag& kv) override {
    (void)kv;  // no op-specific keys
    return Status::OK();
  }

  StatusOr<std::string> SensitivityShape() const override {
    return std::string("h");
  }

  StatusOr<double> ComputeSensitivity(
      const Policy& policy, const SensitivityEnv& env) const override {
    // An unpinned-only constraint set restricts nothing (SatisfiedBy
    // ignores queries without answers), so it pays the unconstrained
    // closed form, not the chain bound.
    if (!policy.has_constraints() || !policy.constraints().AnyPinned()) {
      return HistogramSensitivity(policy.graph());
    }
    // The oracle-sound weighted chain bound (norm 2 per move, moves
    // over all value pairs) — the cache's raison d'etre.
    CompleteHistogramQuery query(policy.domain().size());
    return ConstrainedLinearQuerySensitivity(
        query, policy, env.max_edges, env.max_pairs,
        env.max_policy_graph_vertices);
  }

  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    CompleteHistogramQuery query(ctx.policy.domain().size());
    std::vector<double> truth = query.Evaluate(ctx.hist);
    if (ctx.sensitivity == 0.0) return truth;
    return LaplaceRelease(truth, ctx.sensitivity, ctx.epsilon, rng);
  }
};

const QueryOpRegistrar kRegistrar{
    "histogram", [] { return std::make_unique<HistogramOp>(); }};

}  // namespace
}  // namespace blowfish
