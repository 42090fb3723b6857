#include "mech/quadtree.h"

#include <algorithm>
#include <cassert>

namespace blowfish {

namespace {

constexpr size_t kMaxDepth = 12;  // 4096 x 4096 leaves

size_t DepthFor(uint64_t max_card) {
  size_t d = 0;
  uint64_t side = 1;
  while (side < max_card) {
    side *= 2;
    ++d;
  }
  return d;
}

/// Shared head of Release and ReleaseRangeCount: validates the
/// policy/options pair and resolves the padded layout. Writes
/// depth/side on success.
Status PlanRelease(const Policy& policy, double epsilon,
                   const QuadtreeOptions& opts, size_t* depth,
                   uint64_t* side) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (policy.has_constraints() && !opts.caller_calibrated_constraints) {
    return Status::Unimplemented(
        "the quadtree mechanism handles unconstrained policies unless "
        "the caller calibrates epsilon to a constrained S(h, P)");
  }
  const Domain& dom = policy.domain();
  if (dom.num_attributes() != 2) {
    return Status::InvalidArgument("quadtree needs a 2-attribute domain");
  }
  const uint64_t m0 = dom.attribute(0).cardinality;
  const uint64_t m1 = dom.attribute(1).cardinality;
  *depth = opts.depth == 0 ? DepthFor(std::max(m0, m1)) : opts.depth;
  if (*depth > kMaxDepth) {
    return Status::ResourceExhausted("quadtree depth exceeds the cap");
  }
  *side = uint64_t{1} << *depth;
  if (*side < std::max(m0, m1)) {
    return Status::InvalidArgument(
        "requested depth cannot resolve the domain grid");
  }
  return Status::OK();
}

std::vector<std::vector<double>> EmptyLevels(size_t depth) {
  std::vector<std::vector<double>> levels(depth + 1);
  for (size_t l = 0; l <= depth; ++l) {
    size_t w = size_t{1} << l;
    levels[l].assign(w * w, 0.0);
  }
  return levels;
}

Status CheckRectangle(const Rectangle& rect, uint64_t side) {
  if (rect.lo.size() != 2 || rect.hi.size() != 2) {
    return Status::InvalidArgument("quadtree rectangles are 2-D");
  }
  if (rect.lo[0] > rect.hi[0] || rect.lo[1] > rect.hi[1] ||
      rect.hi[0] >= side || rect.hi[1] >= side) {
    return Status::OutOfRange("rectangle outside the padded grid");
  }
  return Status::OK();
}

/// Canonical decomposition of the rectangle [x0,x1] x [y0,y1] in a
/// depth-d tree: the sum of node_value(level, cx, cy) over the maximal
/// nodes inside it, children visited in (dx, dy) order. Both release
/// paths sum through this one recursion, so they add in the same
/// floating-point order.
template <typename NodeValue>
double Decompose(size_t depth, size_t level, size_t cx, size_t cy,
                 size_t x0, size_t x1, size_t y0, size_t y1,
                 NodeValue& node_value) {
  const size_t side = size_t{1} << (depth - level);
  const size_t nx0 = cx * side, nx1 = nx0 + side - 1;
  const size_t ny0 = cy * side, ny1 = ny0 + side - 1;
  if (nx1 < x0 || nx0 > x1 || ny1 < y0 || ny0 > y1) return 0.0;  // disjoint
  if (x0 <= nx0 && nx1 <= x1 && y0 <= ny0 && ny1 <= y1) {
    return node_value(level, cx, cy);  // fully covered
  }
  assert(level < depth);  // leaves are single cells: covered or disjoint
  double total = 0.0;
  for (size_t dx = 0; dx < 2; ++dx) {
    for (size_t dy = 0; dy < 2; ++dy) {
      total += Decompose(depth, level + 1, 2 * cx + dx, 2 * cy + dy, x0, x1,
                         y0, y1, node_value);
    }
  }
  return total;
}

template <typename NodeValue>
double Decompose(size_t depth, const Rectangle& rect,
                 NodeValue&& node_value) {
  return Decompose(depth, 0, 0, 0, rect.lo[0], rect.hi[0], rect.lo[1],
                   rect.hi[1], node_value);
}

/// The levels released exactly: ExactLevelsForPolicy, except that
/// pinned constraints disable the free levels entirely — a neighbour
/// step's compensating moves may cross any partition cell, so no level
/// is exact (the caller's group-privacy epsilon scaling covers the
/// chained moves).
size_t ExactLevels(const Policy& policy, size_t depth) {
  const bool pinned =
      policy.has_constraints() && policy.constraints().AnyPinned();
  return pinned ? 0 : QuadtreeMechanism::ExactLevelsForPolicy(policy, depth);
}

/// Per-node noise scale when levels exact+1..depth are noised. A tuple
/// move changes at most one node per level per endpoint (2 per level),
/// so with per-level budget eps / (#noised levels) each node gets
/// Lap(2 (#noised levels) / eps).
double NoiseScale(size_t depth, size_t exact, double epsilon) {
  return 2.0 * static_cast<double>(depth - exact) / epsilon;
}

/// The draw index of node (level, cx, cy), level > exact, in the noise
/// stream of a release: its storage-order position among the nodes of
/// levels exact+1..depth, sum_{l=exact+1}^{level-1} 4^l + cx 2^level + cy.
/// Both release paths noise a node with
/// Random::LaplaceAt(key, NoisePosition(...), scale).
uint64_t NoisePosition(size_t exact, size_t level, uint64_t cx, uint64_t cy) {
  const uint64_t levels_above =
      ((uint64_t{1} << (2 * level)) - (uint64_t{1} << (2 * (exact + 1)))) /
      3;
  return levels_above + (cx << level) + cy;
}

}  // namespace

size_t QuadtreeMechanism::ExactLevelsForPolicy(const Policy& policy,
                                               size_t depth) {
  // A level l is exact iff every partition cell of G^P lies within a
  // single level-l node, i.e. the node side 2^(d-l) is a multiple of the
  // per-axis block widths (blocks and nodes are both aligned to zero).
  // Note the direction: *coarse* levels are exact — a within-cell move
  // never crosses a node that wholly contains the cell.
  const auto* part = dynamic_cast<const PartitionGraph*>(&policy.graph());
  if (part == nullptr || part->uniform_blocks().size() != 2) return 0;
  uint64_t b0 = part->uniform_blocks()[0];
  uint64_t b1 = part->uniform_blocks()[1];
  if (b0 == 0 || b1 == 0) return 0;
  size_t exact = 0;
  for (size_t l = 1; l <= depth; ++l) {
    uint64_t side = uint64_t{1} << (depth - l);
    if (side % b0 == 0 && side % b1 == 0) {
      exact = l;
    } else {
      break;  // sides shrink with l; once misaligned, deeper stays so
    }
  }
  return exact;
}

StatusOr<QuadtreeMechanism> QuadtreeMechanism::Release(
    const Dataset& data, const Policy& policy, double epsilon,
    const QuadtreeOptions& opts, Random& rng) {
  size_t depth = 0;
  uint64_t side = 0;
  BLOWFISH_RETURN_IF_ERROR(PlanRelease(policy, epsilon, opts, &depth, &side));
  const Domain& dom = policy.domain();
  if (&data.domain() != &dom && data.domain().size() != dom.size()) {
    return Status::InvalidArgument("dataset domain mismatch");
  }
  std::vector<std::vector<double>> levels = EmptyLevels(depth);
  for (ValueIndex t : data.tuples()) {
    uint64_t x = dom.Coordinate(t, 0);
    uint64_t y = dom.Coordinate(t, 1);
    levels[depth][x * side + y] += 1.0;
  }

  // Aggregate upwards.
  for (size_t l = depth; l-- > 0;) {
    size_t w = size_t{1} << l;
    size_t cw = w * 2;
    for (size_t i = 0; i < w; ++i) {
      for (size_t j = 0; j < w; ++j) {
        levels[l][i * w + j] =
            levels[l + 1][(2 * i) * cw + (2 * j)] +
            levels[l + 1][(2 * i) * cw + (2 * j + 1)] +
            levels[l + 1][(2 * i + 1) * cw + (2 * j)] +
            levels[l + 1][(2 * i + 1) * cw + (2 * j + 1)];
      }
    }
  }

  // Exact levels under the policy; every node deeper gets the draw at
  // its storage-order position in the release's keyed noise stream.
  const size_t exact = ExactLevels(policy, depth);
  if (exact < depth) {
    const double scale = NoiseScale(depth, exact, epsilon);
    const uint64_t key = rng.engine()();
    for (size_t l = exact + 1; l <= depth; ++l) {
      const uint64_t first = NoisePosition(exact, l, 0, 0);
      for (size_t i = 0; i < levels[l].size(); ++i) {
        levels[l][i] += Random::LaplaceAt(key, first + i, scale);
      }
    }
  }
  return QuadtreeMechanism(side, exact, std::move(levels));
}

StatusOr<double> QuadtreeMechanism::ReleaseRangeCount(
    const Histogram& hist, const Policy& policy, double epsilon,
    const QuadtreeOptions& opts, Random& rng, const Rectangle& rect) {
  size_t depth = 0;
  uint64_t side = 0;
  BLOWFISH_RETURN_IF_ERROR(PlanRelease(policy, epsilon, opts, &depth, &side));
  const Domain& dom = policy.domain();
  if (hist.size() != dom.size()) {
    return Status::InvalidArgument("histogram size does not match domain");
  }
  BLOWFISH_RETURN_IF_ERROR(CheckRectangle(rect, side));

  // Each canonical node's value is its count from h(D) (value index
  // x m1 + y), clipped to the domain since the padding is empty, plus,
  // below the exact levels, the draw Release gives it. Counts are
  // integers below 2^53, so a node's count equals the aggregated tree's
  // in any order, and the recursion RangeCount uses adds the nodes in
  // the same order.
  const uint64_t m0 = dom.attribute(0).cardinality;
  const uint64_t m1 = dom.attribute(1).cardinality;
  const size_t exact = ExactLevels(policy, depth);
  const double scale =
      exact < depth ? NoiseScale(depth, exact, epsilon) : 0.0;
  const uint64_t key = exact < depth ? rng.engine()() : 0;
  return Decompose(depth, rect, [&](size_t level, size_t cx, size_t cy) {
    const uint64_t width = uint64_t{1} << (depth - level);
    const uint64_t x0 = cx * width, y0 = cy * width;
    const uint64_t x1 = std::min(x0 + width, m0);
    const uint64_t y1 = std::min(y0 + width, m1);
    double value = 0.0;
    for (uint64_t x = x0; x < x1; ++x) {
      for (uint64_t y = y0; y < y1; ++y) value += hist[x * m1 + y];
    }
    if (level > exact) {
      value += Random::LaplaceAt(key, NoisePosition(exact, level, cx, cy),
                                 scale);
    }
    return value;
  });
}

StatusOr<double> QuadtreeMechanism::RangeCount(const Rectangle& rect) const {
  BLOWFISH_RETURN_IF_ERROR(CheckRectangle(rect, width_));
  return Decompose(depth(), rect, [this](size_t level, size_t cx, size_t cy) {
    return levels_[level][(cx << level) + cy];
  });
}

}  // namespace blowfish
