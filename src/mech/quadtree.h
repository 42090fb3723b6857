// Quadtree spatial decomposition for 2-D range counts (Cormode et al.
// [5], cited in Sec 7.2), with a Blowfish-specific optimization.
//
// The 2-D domain is padded to a 2^d x 2^d grid; level l holds a
// 2^l x 2^l grid of cell counts (level 0 = the public total). Under
// differential privacy every level below the root is perturbed: a tuple
// move changes at most one cell per level per endpoint, so uniform
// per-level budgets eps/d with per-node noise Lap(2 d / eps) give eps-DP.
// Rectangle range counts decompose into O(4^0 + ... ) canonical cells per
// level with the usual logarithmic boundary cost.
//
// Under a Blowfish uniform-grid partition policy G^P whose cells align
// with quadtree cells at level l* (cell side divides the partition block
// on both axes... precisely: every level-l cell with l <= l* lies inside
// one partition cell), the counts at levels 0..l* have policy-specific
// sensitivity 0 — an edge of G^P never moves mass across them — and are
// released *exactly*; only the d - l* deeper levels need noise. This is
// the spatial analogue of Sec 5's "the histogram of P can be released
// without any noise".
//
// Noise: a release takes one 64-bit key from its `rng`, and node
// (l, cx, cy) of a noised level gets Random::LaplaceAt(key, position),
// where position is the node's storage-order index among the noised
// levels: sum_{l'=exact+1}^{l-1} 4^l' + cx 2^l + cy. Each node's draw
// is independent of the others and computed in O(1) from its position.
//
// Serving: the engine releases a fresh tree per rectangle query, and a
// query reads only its rectangle's canonical nodes (at most a few
// thousand of the ~350k in a 512 x 512 tree). ReleaseRangeCount
// therefore counts just those nodes from h(D) and draws noise just for
// them, by position — the same bytes as building the whole tree and
// reading it, at a fraction of the cost.

#ifndef BLOWFISH_MECH_QUADTREE_H_
#define BLOWFISH_MECH_QUADTREE_H_

#include <vector>

#include "core/constraints.h"
#include "core/policy.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace blowfish {

struct QuadtreeOptions {
  /// Maximum tree depth; the grid is padded to side 2^depth. 0 means
  /// "deep enough to resolve single grid cells" (capped at 12 -> 4096^2).
  size_t depth = 0;
  /// Accept constrained policies: the caller has already scaled epsilon
  /// to the chained-move sensitivity S(h, P) (group privacy over the
  /// <= S/2 moves of one neighbour step). Pinned constraints also
  /// disable the free-levels optimization — a compensating move is not
  /// confined to a partition cell, so no level is exact. Without this
  /// flag constrained policies are refused.
  bool caller_calibrated_constraints = false;
};

/// A released quadtree supporting 2-D rectangle range counts.
class QuadtreeMechanism {
 public:
  /// Releases the quadtree for a dataset over a 2-attribute domain under
  /// `policy` ((eps, P)-Blowfish private). Supported graphs: the full
  /// graph (eps-DP; all levels noised) and uniform-grid PartitionGraph
  /// policies (aligned coarse levels exact).
  static StatusOr<QuadtreeMechanism> Release(const Dataset& data,
                                             const Policy& policy,
                                             double epsilon,
                                             const QuadtreeOptions& opts,
                                             Random& rng);

  /// One rectangle's count from a one-shot release fed by a complete
  /// histogram over the domain (hist[v] tuples at value v, integer
  /// counts — the engine's memoized h(D)). Returns, bit for bit, what
  /// Release(D, ...).RangeCount(rect) returns for the same `rng` on the
  /// dataset D with h(D) = hist, but never builds the tree: it counts
  /// only the rectangle's canonical nodes from `hist`, and draws noise
  /// only for the noised ones, each at its position in the release's
  /// keyed stream. Like Release, it takes one draw from `rng` when any
  /// level is noised.
  static StatusOr<double> ReleaseRangeCount(const Histogram& hist,
                                            const Policy& policy,
                                            double epsilon,
                                            const QuadtreeOptions& opts,
                                            Random& rng,
                                            const Rectangle& rect);

  /// Noisy count of tuples inside the rectangle (inclusive grid coords of
  /// the *original* domain; it may reach into the padding).
  StatusOr<double> RangeCount(const Rectangle& rect) const;

  /// Depth d (levels 0..d).
  size_t depth() const { return levels_.size() - 1; }

  /// The deepest level released exactly (0 = only the public total).
  size_t exact_levels() const { return exact_levels_; }

  /// The deepest exact level for a policy, given the padded grid: the
  /// largest l such that every level-l cell lies within one partition
  /// cell. Returns 0 for non-partition policies.
  static size_t ExactLevelsForPolicy(const Policy& policy, size_t depth);

 private:
  QuadtreeMechanism(size_t width, size_t exact_levels,
                    std::vector<std::vector<double>> levels)
      : width_(width), exact_levels_(exact_levels),
        levels_(std::move(levels)) {}

  size_t width_;         // padded side 2^d
  size_t exact_levels_;  // levels 0..exact_levels_ are exact
  /// levels_[l] is a (2^l x 2^l) row-major grid of node values.
  std::vector<std::vector<double>> levels_;
};

}  // namespace blowfish

#endif  // BLOWFISH_MECH_QUADTREE_H_
