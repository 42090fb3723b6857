// Policy graphs and sensitivity under sparse count constraints (Sec 8).
//
// For a policy P = (T, G, I_Q) whose count-query constraints Q are sparse
// w.r.t. G (Def 8.2), the policy graph G_P (Def 8.3) has one vertex per
// query plus v+ and v-, and Thm 8.2 bounds the complete-histogram
// sensitivity by
//     S(h, P) <= 2 max{ alpha(G_P), xi(G_P) },
// with alpha the longest simple directed cycle and xi the longest simple
// v+ -> v- path (both in edges). Computing alpha/xi exactly is NP-hard in
// general (Thm 8.1), so the exact DFS solver is size-bounded; the
// practical scenarios of Sec 8.2 use closed forms:
//   * one marginal + full-domain secrets:      S = 2 size(C)      (Thm 8.4)
//   * disjoint marginals + attribute secrets:  S = 2 max size(Ci) (Thm 8.5)
//   * disjoint rectangles + distance secrets:  S = 2 (maxcomp+1)  (Thm 8.6)

#ifndef BLOWFISH_CORE_POLICY_GRAPH_H_
#define BLOWFISH_CORE_POLICY_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/domain.h"
#include "core/secret_graph.h"
#include "util/status.h"

namespace blowfish {

/// The directed policy graph G_P = (V_P, E_P) of Def 8.3.
/// Vertices 0..p-1 are the count queries; vertex p is v+, vertex p+1 is v-.
class PolicyGraph {
 public:
  /// Builds G_P by enumerating the secret-graph edges (both orientations)
  /// and classifying their lift/lower behaviour. Fails with
  /// FailedPrecondition if Q is not sparse w.r.t. G, or ResourceExhausted
  /// if the edge budget is exceeded.
  static StatusOr<PolicyGraph> Build(const ConstraintSet& constraints,
                                     const SecretGraph& graph,
                                     uint64_t max_edges);

  size_t num_queries() const { return num_queries_; }
  size_t v_plus() const { return num_queries_; }
  size_t v_minus() const { return num_queries_ + 1; }
  size_t num_vertices() const { return num_queries_ + 2; }

  bool HasEdge(size_t from, size_t to) const;
  const std::vector<std::vector<size_t>>& adjacency() const { return adj_; }

  /// alpha(G_P): number of edges of the longest simple directed cycle; 0 if
  /// acyclic. Exact DFS — errors with ResourceExhausted beyond
  /// `max_vertices` vertices (the problem is NP-hard, Thm 8.1).
  StatusOr<uint64_t> LongestSimpleCycle(size_t max_vertices = 24) const;

  /// xi(G_P): number of edges of the longest simple v+ -> v- path.
  StatusOr<uint64_t> LongestSourceSinkPath(size_t max_vertices = 24) const;

  /// The Thm 8.2 bound S(h, P) <= 2 max{alpha, xi}: the paper's formula
  /// over E(G) moves only, kept for the Sec 8 analyses. It is not a
  /// release calibration — compensating moves off E(G) can exceed it
  /// (4 vs the Def 4.1 oracle's 6 on a two-threshold line), so releases
  /// use the weighted all-pairs chain bound (core/sensitivity.h,
  /// ConstrainedLinearQuerySensitivity) through the ReleaseEngine.
  StatusOr<double> HistogramSensitivityBound(size_t max_vertices = 24) const;

 private:
  PolicyGraph(size_t num_queries, std::vector<std::vector<size_t>> adj)
      : num_queries_(num_queries), adj_(std::move(adj)) {}

  size_t num_queries_;
  std::vector<std::vector<size_t>> adj_;  // sorted out-neighbour lists
};

/// The Thm 8.2 analysis generalized to weighted moves, for queries other
/// than the complete histogram, and made sound against the brute-force
/// Def 4.1 oracle (core/neighbors.h). A minimal (G, Q)-neighbour step is
/// ONE chain of tuple moves: at least one move is a secret-graph edge
/// (condition 2 — the discriminative set is non-empty), but the
/// *compensating* moves the pinned constraints force may change a tuple
/// between ANY two domain values — condition 3(b) only minimizes the
/// symmetric difference set-wise, so a cross-graph compensation (e.g. a
/// cross-cell move under G^P) survives minimality whenever dropping it
/// would leave I_Q violated. Moves are therefore classified over all
/// ordered value pairs, not just E(G); each policy-graph edge carries
/// two weights — the heaviest realization over all pairs and over
/// G-edge pairs — and the searches require at least one G-edge move per
/// chain.
///
/// For any query f linear in the complete histogram, the L1 change of
/// one step is at most the sum over its moves of ||M (e_x - e_y)||_1,
/// so S(f, P) is bounded by the heaviest valid simple cycle / simple
/// v+ -> v- path. A cell-restricted histogram pays only for move
/// endpoints inside its cells (the per-cell critical-set analysis of
/// the constrained parallel-composition path); a value-weighted sum
/// pays |v(x) - v(y)| per move.
///
/// Two further differences from PolicyGraph (which keeps the paper's
/// literal Def 8.3 over E(G), validated on the Sec 8 examples):
///  * only PINNED queries classify moves — an unpinned query does not
///    restrict I_Q, so it can neither force a compensation nor absorb
///    one (a policy whose queries are all unpinned degenerates to the
///    unconstrained single-move analysis);
///  * the (v+, v-) edge is added only for a genuinely free single move,
///    and only over G-edges (a free non-edge change never survives the
///    Delta-minimality of condition 3(b), and a single-move step must
///    be discriminative) — Def 8.3 (iv) adds it unconditionally, which
///    is sound for the histogram bound but needlessly loose here.
class WeightedPolicyGraph {
 public:
  /// Per-move weight of changing one tuple from value x to value y —
  /// e.g. the norm ||M (e_x - e_y)||_1, or a *signed* delta v(y) - v(x)
  /// for scalar queries. Need not be symmetric: Build classifies every
  /// ordered pair, so anti-symmetric signed weights are well-defined.
  using EdgeWeight = std::function<double(ValueIndex, ValueIndex)>;

  /// Builds the weighted graph by classifying every ordered pair of
  /// distinct domain values against the pinned constraints, keeping per
  /// directed policy-graph edge the max weight over all realizing pairs
  /// and over G-edge realizing pairs. Enumerates |T| (|T| - 1) pairs —
  /// fails with ResourceExhausted when that exceeds `max_pairs`, and
  /// with FailedPrecondition if some pair lifts (or lowers) two pinned
  /// queries at once (the all-pairs strengthening of Def 8.2 sparsity;
  /// without it one compensating move could serve two constraints and
  /// the chain decomposition breaks).
  static StatusOr<WeightedPolicyGraph> Build(const ConstraintSet& constraints,
                                             const SecretGraph& graph,
                                             uint64_t domain_size,
                                             const EdgeWeight& weight,
                                             uint64_t max_pairs);

  size_t num_queries() const { return num_queries_; }
  size_t v_plus() const { return num_queries_; }
  size_t v_minus() const { return num_queries_ + 1; }
  size_t num_vertices() const { return num_queries_ + 2; }

  /// Heaviest simple directed cycle whose moves include at least one
  /// G-edge realization; 0 if none. Exact DFS — ResourceExhausted
  /// beyond `max_vertices` (NP-hard).
  StatusOr<double> HeaviestSimpleCycle(size_t max_vertices = 24) const;

  /// Heaviest simple v+ -> v- path with at least one G-edge move; 0 if
  /// none.
  StatusOr<double> HeaviestSourceSinkPath(size_t max_vertices = 24) const;

  /// The generalized Thm 8.2 bound: max of the two searches, i.e. the
  /// largest possible summed per-move norm of one neighbour step.
  StatusOr<double> NeighborStepBound(size_t max_vertices = 24) const;

  /// One directed policy-graph edge: the heaviest realization over all
  /// ordered value pairs, and over pairs that are also G-edges. Weights
  /// may be negative under signed weight functions, so "no G-edge
  /// realizes this transition" is the explicit has_edge flag — never a
  /// sentinel weight value.
  struct Transition {
    size_t to = 0;
    double any_weight = 0.0;
    double edge_weight = 0.0;
    bool has_edge = false;
  };

 private:
  WeightedPolicyGraph(size_t num_queries,
                      std::vector<std::vector<Transition>> adj)
      : num_queries_(num_queries), adj_(std::move(adj)) {}

  size_t num_queries_;
  /// adj_[u]: out-transitions sorted by `to`, one entry per edge.
  std::vector<std::vector<Transition>> adj_;
};

/// Corollary 8.3: for sparse Q, S(h, P) <= 2 max{|Q|, 1} without building
/// the policy graph.
double HistogramSensitivityCorollaryBound(size_t num_queries);

/// Thm 8.4: one known marginal C with [C] a proper subset of the
/// attributes, full-domain secrets: S(h, P) = 2 size(C).
StatusOr<double> MarginalFullDomainSensitivity(const Domain& domain,
                                               const Marginal& marginal);

/// Thm 8.5: p pairwise-disjoint known marginals, attribute secrets:
/// S(h, P) = 2 max_i size(C_i).
StatusOr<double> DisjointMarginalsAttributeSensitivity(
    const Domain& domain, const std::vector<Marginal>& marginals);

/// maxcomp(Q) of Sec 8.2.3: the size of the largest connected component of
/// the rectangle graph G_R(Q) (edge iff min-distance <= theta).
StatusOr<uint64_t> MaxRectangleComponent(const Domain& domain,
                                         const std::vector<Rectangle>& rects,
                                         double theta);

/// Thm 8.6: disjoint rectangle range-count constraints, distance-threshold
/// secrets: S(h, P) <= 2 (maxcomp(Q) + 1), with equality when no
/// constraint is a point query. Returns the bound.
StatusOr<double> RectangleDistanceSensitivity(
    const Domain& domain, const std::vector<Rectangle>& rects, double theta);

}  // namespace blowfish

#endif  // BLOWFISH_CORE_POLICY_GRAPH_H_
