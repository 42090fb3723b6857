#include "mech/ordered_hierarchical.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/secret_graph.h"

namespace blowfish {

double OHErrorModel::RangeError(double eps_s, double eps_h) const {
  double err = 0.0;
  if (c1 > 0.0) {
    if (!(eps_s > 0.0)) return std::numeric_limits<double>::infinity();
    err += c1 / (eps_s * eps_s);
  }
  if (c2 > 0.0) {
    if (!(eps_h > 0.0)) return std::numeric_limits<double>::infinity();
    err += c2 / (eps_h * eps_h);
  }
  return err;
}

double OHErrorModel::OptimalSFraction() const {
  if (c1 <= 0.0) return 0.0;
  if (c2 <= 0.0) return 1.0;
  double a = std::cbrt(c1);
  double b = std::cbrt(c2);
  return a / (a + b);
}

double OHErrorModel::OptimalRangeError(double epsilon) const {
  double a = std::cbrt(c1);
  double b = std::cbrt(c2);
  double s = a + b;
  return s * s * s / (epsilon * epsilon);
}

OHErrorModel OHErrorModel::Compute(size_t domain_size, size_t theta_steps,
                                   size_t fanout) {
  OHErrorModel m;
  const double t = static_cast<double>(domain_size);
  const double theta = static_cast<double>(
      std::min<size_t>(theta_steps, domain_size));
  m.c1 = 4.0 * (t - theta) / (t + 1.0);
  double logf = theta > 1.0
                    ? std::log(theta) / std::log(static_cast<double>(fanout))
                    : 0.0;
  m.c2 = 8.0 * (static_cast<double>(fanout) - 1.0) * logf * logf * logf * t /
         (t + 1.0);
  return m;
}

namespace {

/// Resolves theta in index units from the policy's secret graph.
StatusOr<size_t> ThetaSteps(const Policy& policy) {
  if (policy.domain().num_attributes() != 1) {
    return Status::InvalidArgument(
        "the ordered hierarchical mechanism requires a 1-D ordered domain");
  }
  const SecretGraph& g = policy.graph();
  const size_t n = policy.domain().size();
  if (dynamic_cast<const LineGraph*>(&g) != nullptr) return size_t{1};
  if (dynamic_cast<const FullGraph*>(&g) != nullptr) return n;
  if (auto* thresh = dynamic_cast<const DistanceThresholdGraph*>(&g)) {
    double scale = policy.domain().attribute(0).scale;
    double steps = std::floor(thresh->theta() / scale);
    if (steps < 1.0) {
      return Status::FailedPrecondition(
          "theta below the domain resolution: the graph has no edges and "
          "the cumulative histogram can be released exactly");
    }
    return static_cast<size_t>(std::min(steps, static_cast<double>(n)));
  }
  return Status::Unimplemented(
      "ordered hierarchical mechanism supports line, full, and "
      "distance-threshold graphs");
}

}  // namespace

StatusOr<size_t> OrderedHierarchicalMechanism::ResolveThetaSteps(
    const Policy& policy) {
  return ThetaSteps(policy);
}

StatusOr<OrderedHierarchicalMechanism> OrderedHierarchicalMechanism::Release(
    const Histogram& data, const Policy& policy, double epsilon,
    const OrderedHierarchicalOptions& opts, Random& rng) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (policy.has_constraints() && policy.constraints().AnyPinned()) {
    // An UNPINNED constraint set restricts nothing (SatisfiedBy ignores
    // queries without answers) and is served like the unconstrained
    // policy; pinned chains break the per-node distance calibration.
    return Status::Unimplemented(
        "the ordered hierarchical mechanism handles unconstrained policies");
  }
  if (data.size() != policy.domain().size()) {
    return Status::InvalidArgument("histogram size does not match domain");
  }
  BLOWFISH_ASSIGN_OR_RETURN(size_t theta, ThetaSteps(policy));
  const size_t n = data.size();
  const size_t k = (n + theta - 1) / theta;  // number of blocks / S nodes

  // Budget split (Eqn 15 by default). theta = 1 -> all budget to S nodes;
  // theta = |T| -> all budget to the single H tree.
  OHErrorModel model = OHErrorModel::Compute(n, theta, opts.fanout);
  double frac = opts.eps_s_fraction >= 0.0 ? opts.eps_s_fraction
                                           : model.OptimalSFraction();
  frac = std::clamp(frac, 0.0, 1.0);
  if (theta == 1) frac = 1.0;
  if (theta >= n) frac = 0.0;
  const double eps_s = frac * epsilon;
  const double eps_h = epsilon - eps_s;
  // Fail closed: S nodes s_2..s_k with no budget, or with a Laplace scale
  // 1/eps_S that overflows, would be released exact (or as inf). An
  // eps_S of 0 comes from a split of 0, or from a fraction so small that
  // its product with epsilon underflows.
  if (k > 1 && !(eps_s > 0.0 && std::isfinite(1.0 / eps_s))) {
    return Status::InvalidArgument(
        "the S nodes' budget eps_S = eps_s_fraction * eps is 0 or too "
        "small for a finite Laplace scale");
  }

  // True prefix counts at block boundaries.
  std::vector<double> cumulative = data.CumulativeSums();
  std::vector<double> s_nodes(k);
  for (size_t l = 0; l < k; ++l) {
    size_t end = std::min((l + 1) * theta, n);
    s_nodes[l] = cumulative[end - 1];
  }

  // Block subtrees (only needed when blocks are wider than one bucket).
  std::vector<IntervalTree> h_trees;
  size_t tree_height = 0;
  if (theta > 1) {
    h_trees.reserve(k);
    for (size_t l = 0; l < k; ++l) {
      size_t lo = l * theta;
      size_t hi = std::min(lo + theta, n);
      BLOWFISH_ASSIGN_OR_RETURN(IntervalTree tree,
                                IntervalTree::Build(hi - lo, opts.fanout));
      std::vector<double> leaves(data.counts().begin() + lo,
                                 data.counts().begin() + hi);
      tree.PopulateFromLeaves(leaves);
      tree_height = std::max(tree_height, tree.height());
      h_trees.push_back(std::move(tree));
    }
  }

  // --- Perturb ---
  // S nodes l >= 2 (1-indexed): Lap(1/eps_S); sensitivity 1 across the
  // S-node sequence (a move of <= theta crosses at most one boundary).
  for (size_t l = 1; l < k; ++l) s_nodes[l] += rng.Laplace(1.0 / eps_s);
  // H nodes: Lap(2(h+1)/eps_H); H_1 (which owns s_1 as its root) enjoys
  // the combined budget Lap(2(h+1)/(eps_S + eps_H)). The paper writes the
  // scale as 2h/eps_H with h = ceil(log_f theta); we charge the *exact*
  // root-to-leaf path length h+1, since a tuple move touches up to two
  // full paths (2(h+1) nodes) and the looser constant would overspend the
  // budget (verified by the brute-force accounting in
  // tests/privacy_property_test.cc).
  if (theta > 1) {
    const double path = static_cast<double>(tree_height + 1);
    for (size_t l = 0; l < h_trees.size(); ++l) {
      double tree_eps = (l == 0) ? eps_s + eps_h : eps_h;
      if (!(tree_eps > 0.0)) {
        return Status::Internal("block subtree received no budget");
      }
      double scale = 2.0 * path / tree_eps;
      for (auto& level : h_trees[l].levels) {
        for (double& v : level) v += rng.Laplace(scale);
      }
    }
    // s_1 is H_1's (noisy) root.
    s_nodes[0] = h_trees[0].levels[0][0];
  } else if (eps_s > 0.0) {
    // theta == 1: s_1 is released directly with the full budget.
    s_nodes[0] += rng.Laplace(1.0 / epsilon);
  }

  if (opts.consistency) {
    for (auto& tree : h_trees) tree = TreeConsistency(tree);
    if (!h_trees.empty()) s_nodes[0] = h_trees[0].levels[0][0];
    BLOWFISH_ASSIGN_OR_RETURN(std::vector<double> iso,
                              IsotonicRegression(s_nodes));
    s_nodes = std::move(iso);
  }

  return OrderedHierarchicalMechanism(n, theta, std::move(s_nodes),
                                      std::move(h_trees));
}

StatusOr<double> OrderedHierarchicalMechanism::CumulativeCount(
    size_t j) const {
  if (j >= domain_size_) {
    return Status::OutOfRange("cumulative index out of bounds");
  }
  const size_t len = j + 1;
  const size_t full_blocks = len / theta_steps_;
  const size_t remainder = len % theta_steps_;
  double total = 0.0;
  if (full_blocks >= 1) total += s_nodes_[full_blocks - 1];
  if (remainder > 0) {
    // Intra-block prefix q[x_{l*theta+1}, x_j] from block subtree l.
    total += h_trees_[full_blocks].PrefixSum(remainder);
  }
  return total;
}

StatusOr<double> OrderedHierarchicalMechanism::RangeQuery(size_t lo,
                                                          size_t hi) const {
  if (lo > hi || hi >= domain_size_) {
    return Status::OutOfRange("range query out of bounds");
  }
  BLOWFISH_ASSIGN_OR_RETURN(double upper, CumulativeCount(hi));
  double lower = 0.0;
  if (lo > 0) {
    BLOWFISH_ASSIGN_OR_RETURN(lower, CumulativeCount(lo - 1));
  }
  return upper - lower;
}

size_t OrderedHierarchicalMechanism::subtree_height() const {
  size_t h = 0;
  for (const IntervalTree& t : h_trees_) h = std::max(h, t.height());
  return h;
}

std::string OrderedHierarchicalMechanism::DescribeStructure() const {
  std::string out;
  out += "OH structure: |T|=" + std::to_string(domain_size_) +
         ", theta=" + std::to_string(theta_steps_) +
         ", S nodes=" + std::to_string(s_nodes_.size()) +
         ", H subtrees=" + std::to_string(h_trees_.size()) +
         ", subtree height=" + std::to_string(subtree_height()) + "\n";
  out += "  s_1 (root of H_1) -> s_2 -> ... -> s_k, each s_l = q[x_1, "
         "x_{l*theta}];\n";
  out += "  block l answers intra-block prefixes via its fan-out tree.\n";
  return out;
}

}  // namespace blowfish
