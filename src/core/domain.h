// Domain model (Sec 2 of the paper).
//
// A tuple is drawn from T = A1 x A2 x ... x Am, the cross product of m
// categorical attributes. Values are addressed two ways:
//   * as a ValueIndex in {0, ..., |T|-1} (row-major over attribute levels),
//   * as a coordinate vector (one level per attribute).
// Ordinal attributes additionally carry a real-valued `scale` so that the
// L1 metric d(x, y) = sum_i scale_i * |x_i - y_i| models physical distance
// (kilometres for the twitter grid, RGB levels for skin, dollars for
// capital-loss).

#ifndef BLOWFISH_CORE_DOMAIN_H_
#define BLOWFISH_CORE_DOMAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace blowfish {

/// Index of a value in the flattened domain.
using ValueIndex = uint64_t;

/// One categorical (possibly ordinal) attribute.
struct Attribute {
  std::string name;
  /// Number of levels; levels are {0, ..., cardinality-1}.
  uint64_t cardinality = 0;
  /// Physical distance between adjacent levels under the L1 metric.
  double scale = 1.0;
};

/// An immutable cross-product domain T = A1 x ... x Am.
class Domain {
 public:
  /// Validates attributes (non-empty, every cardinality >= 1, scale > 0,
  /// total size fits in 63 bits) and builds the domain.
  static StatusOr<Domain> Create(std::vector<Attribute> attributes);

  /// Convenience: a 1-D totally ordered domain of the given size
  /// ("line domain"), e.g. capital-loss or a latitude axis.
  static StatusOr<Domain> Line(uint64_t size, double scale = 1.0,
                               std::string name = "x");

  /// Convenience: a k-dim grid [m]^k with a uniform per-axis scale,
  /// the T = [m]^k of Sec 8.2.3.
  static StatusOr<Domain> Grid(uint64_t m, size_t k, double scale = 1.0);

  size_t num_attributes() const { return attributes_.size(); }
  const Attribute& attribute(size_t i) const { return attributes_[i]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// |T|, the number of values in the domain.
  uint64_t size() const { return size_; }

  /// Row-major index of a coordinate vector. Asserts on arity/bounds.
  ValueIndex Encode(const std::vector<uint64_t>& coords) const;

  /// Attribute `attr`'s row-major stride: Encode(coords) is the sum of
  /// coords[i] * stride(i).
  uint64_t stride(size_t attr) const { return strides_[attr]; }

  /// Inverse of Encode.
  std::vector<uint64_t> Decode(ValueIndex x) const;

  /// Level of attribute `attr` within value `x`, without full decode.
  uint64_t Coordinate(ValueIndex x, size_t attr) const;

  /// Replaces attribute `attr` of `x` with `level`.
  ValueIndex WithCoordinate(ValueIndex x, size_t attr, uint64_t level) const;

  /// L1 (Manhattan) distance with per-attribute scales:
  /// d(x, y) = sum_i scale_i * |x_i - y_i|.
  double L1Distance(ValueIndex x, ValueIndex y) const;

  /// Number of attributes on which x and y differ (Hamming distance over
  /// coordinates); the graph distance of G^attr.
  size_t HammingDistance(ValueIndex x, ValueIndex y) const;

  /// Diameter d(T): the largest L1 distance between any two values,
  /// i.e. sum_i scale_i * (|A_i| - 1). Used by the global sensitivity of
  /// q_sum in k-means (Sec 6).
  double Diameter() const;

  /// Real-valued point for a value: coordinate i times scale i. This is the
  /// embedding used by k-means.
  std::vector<double> Point(ValueIndex x) const;

 private:
  explicit Domain(std::vector<Attribute> attributes);

  std::vector<Attribute> attributes_;
  /// stride_[i] = product of cardinalities of attributes after i.
  std::vector<uint64_t> strides_;
  uint64_t size_ = 0;
};

}  // namespace blowfish

#endif  // BLOWFISH_CORE_DOMAIN_H_
