#include "mech/constrained_inference.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace blowfish {

StatusOr<std::vector<double>> IsotonicRegression(
    const std::vector<double>& ys, const std::vector<double>& weights) {
  if (!weights.empty() && weights.size() != ys.size()) {
    return Status::InvalidArgument("weights size mismatch");
  }
  for (double w : weights) {
    if (!(w > 0.0)) {
      return Status::InvalidArgument("weights must be strictly positive");
    }
  }
  // Pool-adjacent-violators over (mean, weight, count) blocks.
  struct Block {
    double mean;
    double weight;
    size_t count;
  };
  std::vector<Block> blocks;
  blocks.reserve(ys.size());
  for (size_t i = 0; i < ys.size(); ++i) {
    double w = weights.empty() ? 1.0 : weights[i];
    blocks.push_back(Block{ys[i], w, 1});
    while (blocks.size() >= 2 &&
           blocks[blocks.size() - 2].mean >= blocks.back().mean) {
      Block top = blocks.back();
      blocks.pop_back();
      Block& prev = blocks.back();
      double total_w = prev.weight + top.weight;
      prev.mean = (prev.mean * prev.weight + top.mean * top.weight) / total_w;
      prev.weight = total_w;
      prev.count += top.count;
    }
  }
  std::vector<double> out;
  out.reserve(ys.size());
  for (const Block& b : blocks) {
    for (size_t i = 0; i < b.count; ++i) out.push_back(b.mean);
  }
  return out;
}

std::vector<double> ClampCumulative(std::vector<double> cumulative,
                                    double total) {
  for (double& v : cumulative) v = std::clamp(v, 0.0, total);
  if (!cumulative.empty()) cumulative.back() = total;
  // Re-impose monotonicity after clamping (clamp preserves it except
  // possibly against the pinned final entry).
  for (size_t i = cumulative.size(); i-- > 1;) {
    cumulative[i - 1] = std::min(cumulative[i - 1], cumulative[i]);
  }
  return cumulative;
}

StatusOr<IntervalTree> IntervalTree::Build(size_t num_leaves, size_t fanout) {
  if (num_leaves == 0) {
    return Status::InvalidArgument("tree needs at least one leaf");
  }
  if (fanout < 2) {
    return Status::InvalidArgument("fanout must be at least 2");
  }
  IntervalTree tree;
  tree.fanout = fanout;
  tree.num_leaves = num_leaves;
  // Height h = ceil(log_f num_leaves); level l has ceil(n / f^(h-l)) nodes.
  // Built from the leaves up, since ceil(ceil(n / f^j) / f) is
  // ceil(n / f^(j+1)): each level is its children's count over f, rounded
  // up, and the root is the first level of one node. No power of f is
  // formed, so no fanout overflows; a fanout >= n is a root over the
  // leaves.
  std::vector<size_t> sizes = {num_leaves};
  while (sizes.back() > 1) {
    const size_t below = sizes.back();
    sizes.push_back(below / fanout + (below % fanout != 0 ? 1 : 0));
  }
  tree.levels.resize(sizes.size());
  for (size_t l = 0; l < sizes.size(); ++l) {
    tree.levels[l].assign(sizes[sizes.size() - 1 - l], 0.0);
  }
  return tree;
}

std::pair<size_t, size_t> IntervalTree::NodeRange(size_t level,
                                                  size_t index) const {
  // f^(h - level), saturated at num_leaves: a span that reaches it
  // covers every leaf, whatever the power.
  size_t span = 1;
  for (size_t l = height(); l > level; --l) {
    span = span > num_leaves / fanout ? num_leaves : span * fanout;
  }
  size_t lo = index * span;
  size_t hi = std::min(lo + span, num_leaves);
  return {lo, hi};
}

void IntervalTree::PopulateFromLeaves(const std::vector<double>& leaves) {
  assert(leaves.size() == num_leaves);
  levels[height()] = leaves;
  for (size_t l = height(); l-- > 0;) {
    for (size_t i = 0; i < levels[l].size(); ++i) {
      double total = 0.0;
      size_t child_lo = i * fanout;
      size_t child_hi =
          std::min(child_lo + fanout, levels[l + 1].size());
      for (size_t c = child_lo; c < child_hi; ++c) total += levels[l + 1][c];
      levels[l][i] = total;
    }
  }
}

double IntervalTree::PrefixSum(size_t len) const {
  assert(len <= num_leaves);
  if (len == 0) return 0.0;
  // Descend from the root, taking fully covered children.
  double total = 0.0;
  size_t level = 0;
  size_t node = 0;
  while (true) {
    auto [lo, hi] = NodeRange(level, node);
    (void)lo;
    if (hi <= len) {
      total += levels[level][node];
      // Move to the right sibling chain: if this node ends exactly at len
      // we are done; otherwise continue with the next node at this level.
      if (hi == len) return total;
      ++node;
      continue;
    }
    // Node sticks out past len: descend into its children.
    if (level == height()) return total;  // leaf partially needed: none left
    ++level;
    node *= fanout;
    // Recompute which child we stand on: children start at node; loop
    // continues and will consume fully covered children.
  }
}

IntervalTree TreeConsistency(const IntervalTree& noisy) {
  // Recursive weighted-least-squares on the tree: every node carries a
  // unit-weight measurement; bottom-up we fuse each node's own measurement
  // with the aggregate of its children, top-down we distribute the
  // residual so children sum exactly to their parent. For complete trees
  // with uniform noise this reproduces Hay et al.'s closed form and also
  // handles ragged last subtrees correctly.
  const size_t h = noisy.height();
  IntervalTree z = noisy;                       // fused estimates
  std::vector<std::vector<double>> weight(h + 1);  // inverse variances
  for (size_t l = 0; l <= h; ++l) {
    weight[l].assign(noisy.levels[l].size(), 1.0);
  }
  // Bottom-up fuse.
  for (size_t l = h; l-- > 0;) {
    for (size_t i = 0; i < noisy.levels[l].size(); ++i) {
      size_t child_lo = i * noisy.fanout;
      size_t child_hi =
          std::min(child_lo + noisy.fanout, noisy.levels[l + 1].size());
      if (child_lo >= child_hi) continue;
      double child_sum = 0.0;
      double child_var = 0.0;  // variance of the summed child estimate
      for (size_t c = child_lo; c < child_hi; ++c) {
        child_sum += z.levels[l + 1][c];
        child_var += 1.0 / weight[l + 1][c];
      }
      double agg_weight = 1.0 / child_var;
      double own = noisy.levels[l][i];
      z.levels[l][i] =
          (own * 1.0 + child_sum * agg_weight) / (1.0 + agg_weight);
      weight[l][i] = 1.0 + agg_weight;
    }
  }
  // Top-down distribute residuals.
  IntervalTree out = z;
  for (size_t l = 0; l < h; ++l) {
    for (size_t i = 0; i < out.levels[l].size(); ++i) {
      size_t child_lo = i * noisy.fanout;
      size_t child_hi =
          std::min(child_lo + noisy.fanout, noisy.levels[l + 1].size());
      if (child_lo >= child_hi) continue;
      double child_sum = 0.0;
      double child_var = 0.0;
      for (size_t c = child_lo; c < child_hi; ++c) {
        child_sum += z.levels[l + 1][c];
        child_var += 1.0 / weight[l + 1][c];
      }
      double diff = out.levels[l][i] - child_sum;
      for (size_t c = child_lo; c < child_hi; ++c) {
        out.levels[l + 1][c] =
            z.levels[l + 1][c] + diff * (1.0 / weight[l + 1][c]) / child_var;
      }
    }
  }
  return out;
}

}  // namespace blowfish
