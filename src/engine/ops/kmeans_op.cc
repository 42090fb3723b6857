// `kmeans` — Blowfish SuLQ k-means (Sec 6).
//
//   kmeans eps=0.5 [k=4] [iters=10] [label=] [session=]
//
// Each iteration releases q_size (sensitivity 2) and q_sum (sensitivity
// per Lemma 6.1); admission keys on max(S(q_sum), S(q_size)) so the
// eps = 0 free-release rule only fires when *both* are free. Pinned-
// constrained policies serve via the weighted chain bounds (Thm 8.2
// generalized), with the cached max riding into the mechanism as both
// sensitivity overrides. Payload:
// { objective, c0_0..c0_{d-1}, c1_0.., ... }.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sensitivity.h"
#include "engine/ops/query_op.h"
#include "mech/kmeans.h"

namespace blowfish {
namespace {

/// Per-move weight of q_sum along a constrained chain: one move of one
/// tuple from x to y shifts at most 2 ||x - y||_1 of per-cluster
/// coordinate mass (the per-move form of Lemma 6.1). Only EdgeNorm
/// matters — the query is never evaluated against a histogram, and
/// output_dim 2 keeps it off the signed scalar path (q_sum is a vector
/// of per-cluster sums, not one scalar).
class QSumMoveNormQuery final : public LinearQuery {
 public:
  explicit QSumMoveNormQuery(const Domain& domain) : domain_(domain) {}
  size_t output_dim() const override { return 2; }
  void ForEachColumnEntry(
      ValueIndex,
      const std::function<void(size_t, double)>&) const override {}
  double EdgeNorm(ValueIndex x, ValueIndex y) const override {
    return x == y ? 0.0 : 2.0 * domain_.L1Distance(x, y);
  }
  std::string name() const override { return "q_sum"; }

 private:
  const Domain& domain_;
};

class KMeansOp final : public QueryOp {
 public:
  std::string KindName() const override { return "kmeans"; }
  std::string ExampleArgs() const override { return "k=2 iters=2"; }

  Status Parse(KeyValueBag& kv) override {
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("k", &options_.k));
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("iters", &options_.iterations));
    return Status::OK();
  }

  StatusOr<std::string> SensitivityShape() const override {
    return std::string("kmeans");
  }

  StatusOr<double> ComputeSensitivity(
      const Policy& policy, const SensitivityEnv& env) const override {
    // K-means releases both q_sum and q_size; admission (in particular
    // the eps = 0 free-release rule) must key on the larger of the two.
    if (policy.has_constraints() && policy.constraints().AnyPinned()) {
      // Pinned constraints chain moves (Thm 8.2): both per-iteration
      // releases need the weighted all-pairs chain bound, with q_sum
      // paying 2 ||x - y||_1 per move and q_size paying 2 (a complete
      // histogram's per-move norm).
      QSumMoveNormQuery q_sum_query(policy.domain());
      BLOWFISH_ASSIGN_OR_RETURN(
          double q_sum,
          ConstrainedLinearQuerySensitivity(
              q_sum_query, policy, env.max_edges, env.max_pairs,
              env.max_policy_graph_vertices));
      CompleteHistogramQuery q_size_query(policy.domain().size());
      BLOWFISH_ASSIGN_OR_RETURN(
          double q_size,
          ConstrainedLinearQuerySensitivity(
              q_size_query, policy, env.max_edges, env.max_pairs,
              env.max_policy_graph_vertices));
      return std::max(q_sum, q_size);
    }
    BLOWFISH_ASSIGN_OR_RETURN(double q_sum, QSumSensitivity(policy));
    return std::max(q_sum, QSizeSensitivity(policy.graph()));
  }

  bool NeedsHistogram() const override {
    // K-means clusters embedded points (ctx.data), not histogram counts.
    return false;
  }

  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    // sensitivity == 0 means the secret graph is edgeless: every
    // internal Laplace release is exact regardless of epsilon, so a
    // placeholder epsilon keeps the mech-layer eps > 0 check happy.
    const double eps = ctx.sensitivity == 0.0 && ctx.epsilon <= 0.0
                           ? 1.0
                           : ctx.epsilon;
    // Constrained policies ride the resolved chain bound into the
    // mechanism as both overrides: the cache holds one scalar, so both
    // releases calibrate to max(S_c(q_sum), S_c(q_size)) — sound, at
    // the cost of slightly over-noising the smaller of the two.
    // Unconstrained policies keep the mechanism's own Lemma 6.1 closed
    // forms (identical values, identical release).
    const double override_sens =
        ctx.policy.has_constraints() ? ctx.sensitivity : -1.0;
    BLOWFISH_ASSIGN_OR_RETURN(
        KMeansResult result,
        BlowfishKMeans(ctx.data, ctx.policy, eps, options_, rng,
                       override_sens, override_sens));
    std::vector<double> out;
    out.push_back(result.objective);
    for (const auto& centroid : result.centroids) {
      out.insert(out.end(), centroid.begin(), centroid.end());
    }
    return out;
  }

 private:
  KMeansOptions options_;
};

const QueryOpRegistrar kRegistrar{
    "kmeans", [] { return std::make_unique<KMeansOp>(); }};

}  // namespace
}  // namespace blowfish
