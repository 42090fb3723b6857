// Dataset model (Sec 2).
//
// A dataset D holds n tuples; tuple i belongs to the individual with id i
// (the paper's indistinguishability setting: the set of individuals is
// public and fixed, only tuple *values* are private). Mechanisms consume
// datasets either as complete histograms h(D) or as embedded points (for
// k-means).

#ifndef BLOWFISH_CORE_DATASET_H_
#define BLOWFISH_CORE_DATASET_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/domain.h"
#include "util/histogram.h"
#include "util/status.h"

namespace blowfish {

class ColumnarTable;

/// An immutable table of tuples over a shared domain.
class Dataset {
 public:
  /// Validates that every tuple is a value of the domain.
  static StatusOr<Dataset> Create(std::shared_ptr<const Domain> domain,
                                  std::vector<ValueIndex> tuples);

  const Domain& domain() const { return *domain_; }
  std::shared_ptr<const Domain> domain_ptr() const { return domain_; }

  /// Number of tuples n (public under the indistinguishability notion).
  size_t size() const { return tuples_.size(); }

  ValueIndex tuple(size_t id) const { return tuples_[id]; }
  const std::vector<ValueIndex>& tuples() const { return tuples_; }

  /// Returns a copy with tuple `id` changed to `value` — one step along a
  /// potential neighbour relation.
  StatusOr<Dataset> WithTuple(size_t id, ValueIndex value) const;

  /// Largest domain a complete histogram is materialized for (2^26
  /// buckets); CompleteHistogram and the engine refuse larger ones.
  static constexpr uint64_t kMaxMaterializedDomain = uint64_t{1} << 26;

  /// The complete histogram h(D): one bucket per domain value. Only valid
  /// for domains of at most kMaxMaterializedDomain values.
  StatusOr<Histogram> CompleteHistogram() const;

  /// Histogram h_P(D) over an arbitrary bucketing of the domain.
  Histogram PartitionedHistogram(
      const std::function<uint64_t(ValueIndex)>& bucket_of,
      size_t num_buckets) const;

  /// Tuples embedded as real points (coordinate * scale per attribute),
  /// the representation k-means clusters.
  std::vector<std::vector<double>> Points() const;

  /// A dictionary-encoded columnar copy (data/columnar.h), built on
  /// each call. Nothing on the serving path reads it.
  StatusOr<std::shared_ptr<const ColumnarTable>> columns() const;

 private:
  Dataset(std::shared_ptr<const Domain> domain,
          std::vector<ValueIndex> tuples)
      : domain_(std::move(domain)), tuples_(std::move(tuples)) {}

  std::shared_ptr<const Domain> domain_;
  std::vector<ValueIndex> tuples_;
};

}  // namespace blowfish

#endif  // BLOWFISH_CORE_DATASET_H_
