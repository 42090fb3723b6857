// Policy-specific global sensitivity (Def 5.1, Sec 5).
//
// For unconstrained policies P = (T, G, I_n), neighbours differ by moving
// one tuple along one edge of G, so for any query that is *linear in the
// complete histogram*, f(D) = M h(D):
//
//     S(f, P) = max_{(x,y) in E(G)} || M (e_x - e_y) ||_1.
//
// This module provides that generic engine plus the closed forms the paper
// derives: histogram queries (S = 2, or 0 when the partition is coarser
// than G's components), cumulative histograms (S = theta in index units),
// value-weighted linear sums, and q_sum for k-means (Lemma 6.1).
//
// Constrained policies are handled elsewhere: the policy-graph bound of
// Thm 8.2 (core/policy_graph.h) and the brute-force oracle
// (core/neighbors.h).

#ifndef BLOWFISH_CORE_SENSITIVITY_H_
#define BLOWFISH_CORE_SENSITIVITY_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/policy.h"
#include "core/secret_graph.h"
#include "util/histogram.h"
#include "util/status.h"

namespace blowfish {

/// A query that is linear in the complete histogram: f(D) = M h(D) with M
/// a (dim x |T|) matrix exposed column-wise (columns are sparse for every
/// workload in the paper).
class LinearQuery {
 public:
  virtual ~LinearQuery() = default;

  /// Number of output components (rows of M).
  virtual size_t output_dim() const = 0;

  /// Invokes fn(row, value) for each non-zero entry of column x of M.
  virtual void ForEachColumnEntry(
      ValueIndex x, const std::function<void(size_t, double)>& fn) const = 0;

  /// || M (e_x - e_y) ||_1 — the L1 change when one tuple moves from x to
  /// y. The default combines the sparse columns; subclasses override with
  /// O(1) closed forms where available.
  virtual double EdgeNorm(ValueIndex x, ValueIndex y) const;

  /// f(D) = M h(D) for a materialized complete histogram.
  virtual std::vector<double> Evaluate(const Histogram& h) const;

  /// The single matrix entry M[0][x] of a scalar (output_dim() == 1)
  /// query — the value v(x) whose *signed* delta v(y) - v(x) is the
  /// exact per-move change of f. Meaningless for multi-row queries.
  double ScalarValue(ValueIndex x) const;

  virtual std::string name() const = 0;
};

/// The complete histogram query h (identity matrix). S = 2 for any graph
/// with at least one edge.
class CompleteHistogramQuery final : public LinearQuery {
 public:
  explicit CompleteHistogramQuery(uint64_t domain_size) : n_(domain_size) {}
  size_t output_dim() const override { return n_; }
  void ForEachColumnEntry(
      ValueIndex x,
      const std::function<void(size_t, double)>& fn) const override {
    fn(static_cast<size_t>(x), 1.0);
  }
  double EdgeNorm(ValueIndex x, ValueIndex y) const override {
    return x == y ? 0.0 : 2.0;
  }
  std::string name() const override { return "h"; }

 private:
  uint64_t n_;
};

/// A partitioned histogram h_P: bucket_of maps each value to one of
/// `num_buckets` buckets. S = 2 unless every edge of G stays within a
/// bucket (then 0 — Sec 5's "histogram of P ... released without noise").
class PartitionedHistogramQuery final : public LinearQuery {
 public:
  PartitionedHistogramQuery(std::function<uint64_t(ValueIndex)> bucket_of,
                            size_t num_buckets)
      : bucket_of_(std::move(bucket_of)), num_buckets_(num_buckets) {}
  size_t output_dim() const override { return num_buckets_; }
  void ForEachColumnEntry(
      ValueIndex x,
      const std::function<void(size_t, double)>& fn) const override {
    fn(static_cast<size_t>(bucket_of_(x)), 1.0);
  }
  double EdgeNorm(ValueIndex x, ValueIndex y) const override {
    if (x == y || bucket_of_(x) == bucket_of_(y)) return 0.0;
    return 2.0;
  }
  std::string name() const override { return "h_P"; }

 private:
  std::function<uint64_t(ValueIndex)> bucket_of_;
  size_t num_buckets_;
};

/// The cumulative histogram S_T (Def 7.1) over a 1-D ordered domain:
/// row i of M is the indicator of values <= i, so
/// ||M(e_x - e_y)||_1 = |x - y| (index distance).
class CumulativeHistogramQuery final : public LinearQuery {
 public:
  explicit CumulativeHistogramQuery(uint64_t domain_size) : n_(domain_size) {}
  size_t output_dim() const override { return n_; }
  void ForEachColumnEntry(
      ValueIndex x,
      const std::function<void(size_t, double)>& fn) const override {
    for (size_t i = static_cast<size_t>(x); i < n_; ++i) fn(i, 1.0);
  }
  double EdgeNorm(ValueIndex x, ValueIndex y) const override {
    return static_cast<double>(x < y ? y - x : x - y);
  }
  std::vector<double> Evaluate(const Histogram& h) const override {
    return h.CumulativeSums();
  }
  std::string name() const override { return "S_T"; }

 private:
  uint64_t n_;
};

/// A scalar value-weighted sum f(D) = sum_x v(x) c(x) (e.g. the linear sum
/// query of Sec 5 with uniform per-individual weights).
class ValueWeightedSumQuery final : public LinearQuery {
 public:
  explicit ValueWeightedSumQuery(std::function<double(ValueIndex)> value)
      : value_(std::move(value)) {}
  size_t output_dim() const override { return 1; }
  void ForEachColumnEntry(
      ValueIndex x,
      const std::function<void(size_t, double)>& fn) const override {
    fn(0, value_(x));
  }
  double EdgeNorm(ValueIndex x, ValueIndex y) const override;
  std::string name() const override { return "f_v"; }

 private:
  std::function<double(ValueIndex)> value_;
};

/// The complete histogram restricted to a set of G^P partition cells:
/// one output row per domain value whose cell is in the set, in domain
/// order. Moving a tuple across an edge of G^P changes two rows if the
/// edge's (shared) cell is included, none otherwise — the weight that
/// drives the per-cell critical-set sensitivity below. The query the
/// `cell_histogram` QueryOp releases.
class CellRestrictedHistogramQuery final : public LinearQuery {
 public:
  CellRestrictedHistogramQuery(const PartitionGraph& partition,
                               const Domain& domain,
                               const std::set<uint64_t>& cells);

  size_t output_dim() const override { return included_.size(); }
  void ForEachColumnEntry(
      ValueIndex x,
      const std::function<void(size_t, double)>& fn) const override {
    auto it = row_of_.find(x);
    if (it != row_of_.end()) fn(it->second, 1.0);
  }
  double EdgeNorm(ValueIndex x, ValueIndex y) const override {
    if (x == y) return 0.0;
    return (row_of_.count(x) > 0 ? 1.0 : 0.0) +
           (row_of_.count(y) > 0 ? 1.0 : 0.0);
  }
  std::vector<double> Evaluate(const Histogram& h) const override;
  std::string name() const override { return "h_cells"; }

  /// Domain values whose cell is included, in domain order (the payload
  /// row layout).
  const std::vector<ValueIndex>& included() const { return included_; }

 private:
  std::vector<ValueIndex> included_;
  std::unordered_map<ValueIndex, size_t> row_of_;
};

/// Generic unconstrained policy-specific sensitivity:
/// max over edges of G of query.EdgeNorm. Enumerates at most `max_edges`
/// edges; prefer the closed forms below for the huge structured graphs.
StatusOr<double> UnconstrainedSensitivity(const LinearQuery& query,
                                          const SecretGraph& graph,
                                          uint64_t max_edges);

/// Closed-form S(h, P) for unconstrained policies: 2 if G has any edge
/// (0 for an edgeless graph).
double HistogramSensitivity(const SecretGraph& graph);

/// Closed-form S(S_T, P) in *index units* for a 1-D ordered domain under
/// G^{d,theta} (scale s): the farthest adjacent pair is floor(theta/s)
/// indices apart. theta = s gives the line graph's sensitivity 1; the
/// complete graph gives |T| - 1 (Sec 7 intro).
StatusOr<double> CumulativeHistogramSensitivity(const Policy& policy);

/// Closed-form S(q_sum, P) for k-means' per-cluster coordinate sums
/// (Lemma 6.1 and the preceding discussion):
///   G^full: 2 d(T); G^attr: 2 max_A scale_A (|A|-1); G^{L1,theta}: 2
///   theta; G^P uniform grid: 2 max_cell d(cell).
StatusOr<double> QSumSensitivity(const Policy& policy);

/// S(q_size, P) = 2 for every graph with an edge (q_size is a partitioned
/// histogram over the data-dependent clustering; the bound of Sec 6).
double QSizeSensitivity(const SecretGraph& graph);

/// S(f, P) for any histogram-linear query under a *constrained* policy:
/// the weighted Thm 8.2 bound (core/policy_graph.h, WeightedPolicyGraph)
/// with per-move norm query.EdgeNorm, sound against the Def 4.1 oracle
/// — chain moves range over all value pairs, since constraint-forced
/// compensations are not confined to E(G). Unconstrained policies fall
/// back to the generic edge maximum, so this is safe to call for every
/// policy.
///
/// Scalar queries (output_dim() == 1) get a strictly tighter bound: a
/// chain's L1 change is |sum of signed per-move deltas v(y) - v(x)|,
/// not the sum of their magnitudes — compensating moves pull the value
/// back toward where it started, and the magnitudes ignore the
/// cancellation. The search runs twice with per-move weight
/// s (v(y) - v(x)) for s = +1 and -1 and returns the larger bound;
/// each run bounds the chains whose net delta has that sign, so the max
/// dominates |net delta| over every chain. It is never above the
/// magnitude bound (per transition, max_s s d <= |d| realization-wise
/// and the mandatory-G-edge penalty stays nonnegative either way).
///
/// Fails with FailedPrecondition when the pinned constraints
/// are not sparse over value pairs (the all-pairs strengthening of
/// Def 8.2) and ResourceExhausted past the pair or vertex budgets (the
/// constrained problem is NP-hard, Thm 8.1).
///
/// `max_edges` budgets secret-graph *edge* enumerations (the
/// unconstrained fallback); `max_pairs` budgets the |T| (|T| - 1)
/// all-pairs move classification of the constrained path. They are
/// separate knobs on purpose: pair counts grow quadratically in the
/// domain while edge counts are often linear (G^P, line graphs), so a
/// shared budget sized for edges fails pinned-constrained domains
/// closed past ~4096 values.
StatusOr<double> ConstrainedLinearQuerySensitivity(
    const LinearQuery& query, const Policy& policy, uint64_t max_edges,
    uint64_t max_pairs, size_t max_policy_graph_vertices);

/// Per-cell critical-set sensitivity of the histogram restricted to
/// `cells` under a partition secret graph: each move of a neighbour step
/// pays 2 iff its cell is in the set, so S is the heaviest chain of
/// in-set moves (0 when every included cell is a singleton). Requires
/// the policy's graph to be a PartitionGraph; handles both constrained
/// and unconstrained policies.
StatusOr<double> ConstrainedCellHistogramSensitivity(
    const Policy& policy, const std::vector<uint64_t>& cells,
    uint64_t max_edges, uint64_t max_pairs,
    size_t max_policy_graph_vertices);

/// Sorted concatenation of several (disjoint) cell lists — the cell set
/// of a whole parallel group, in the canonical order shared by noise
/// calibration and cache keys.
std::vector<uint64_t> SortedUnionCells(
    const std::vector<std::vector<uint64_t>>& member_cells);

/// The noise scale for every member of a *constrained* parallel group:
/// ConstrainedCellHistogramSensitivity of the union of all members'
/// cells. Per-member scales would be unsound — a neighbour step's
/// compensating moves may land in ANY cell, so several members'
/// histograms can change in one step; since the members' disjoint row
/// sets concatenate to the union-restricted histogram,
///   sum_m eps_m L1_m / S_union <= max_m eps_m,
/// which is exactly the single max-epsilon parallel charge. The engine
/// noises every member of an admitted constrained group at this scale.
StatusOr<double> ConstrainedUnionCellsSensitivity(
    const Policy& policy,
    const std::vector<std::vector<uint64_t>>& member_cells,
    uint64_t max_edges, uint64_t max_pairs,
    size_t max_policy_graph_vertices);

}  // namespace blowfish

#endif  // BLOWFISH_CORE_SENSITIVITY_H_
