// `kmeans` — Blowfish SuLQ k-means (Sec 6) over h(D).
//
//   kmeans eps=0.5 [k=4] [iters=10] [label=] [session=]
//
// 1 <= k <= 64 and 1 <= iters <= 100 (the paper runs k = 4 for 10
// iterations); anything else is refused at admission, before a charge
// or a stream id, because a request's cost grows with k * iters. Each
// iteration releases q_size (sensitivity 2) and q_sum (sensitivity per
// Lemma 6.1); admission keys on max(S(q_sum), S(q_size)) so the eps = 0
// free-release rule only fires when *both* are free. Pinned-constrained
// policies serve via the weighted chain bounds (Thm 8.2 generalized),
// with the cached max calibrating both releases. The mechanism reads
// only h(D) and starts from centroids drawn uniformly in the domain
// box. Payload: the k noisy centroids, k * d values
// { c0_0..c0_{d-1}, c1_0.., ... }.

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

/// Admission caps on a request's work: one iteration costs O(k * d)
/// per non-empty cell of h(D).
constexpr size_t kMaxK = 64;
constexpr size_t kMaxIters = 100;

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

  Status Validate(const Policy& policy) const override {
    (void)policy;
    if (options_.k == 0 || options_.k > kMaxK) {
      return Status::InvalidArgument("k must be in [1, " +
                                     std::to_string(kMaxK) + "]");
    }
    if (options_.iterations == 0 || options_.iterations > kMaxIters) {
      return Status::InvalidArgument("iters must be in [1, " +
                                     std::to_string(kMaxIters) + "]");
    }
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

  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    // sensitivity == 0 means the secret graph is edgeless: every
    // internal Laplace release is exact regardless of epsilon, so a
    // placeholder epsilon keeps the mech-layer eps > 0 check happy.
    const double eps = ctx.sensitivity == 0.0 && ctx.epsilon <= 0.0
                           ? 1.0
                           : ctx.epsilon;
    // Constrained policies calibrate both releases to the resolved chain
    // bound: the cache holds one scalar, max(S_c(q_sum), S_c(q_size)) —
    // sound, at the cost of slightly over-noising the smaller of the
    // two. Unconstrained policies use the Lemma 6.1 closed forms.
    double qsum = ctx.sensitivity;
    double qsize = ctx.sensitivity;
    if (!ctx.policy.has_constraints()) {
      BLOWFISH_ASSIGN_OR_RETURN(qsum, QSumSensitivity(ctx.policy));
      qsize = QSizeSensitivity(ctx.policy.graph());
    }
    BLOWFISH_ASSIGN_OR_RETURN(
        Centroids centroids,
        SuLQKMeans(ctx.hist, ctx.policy.domain(), qsum, qsize, eps,
                   options_, rng));
    std::vector<double> out;
    for (const auto& centroid : centroids) {
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
