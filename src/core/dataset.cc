#include "core/dataset.h"

#include <string>
#include <utility>

#include "data/columnar.h"

namespace blowfish {

StatusOr<Dataset> Dataset::Create(std::shared_ptr<const Domain> domain,
                                  std::vector<ValueIndex> tuples) {
  for (ValueIndex t : tuples) {
    if (t >= domain->size()) {
      return Status::OutOfRange("tuple value " + std::to_string(t) +
                                " outside domain of size " +
                                std::to_string(domain->size()));
    }
  }
  return Dataset(std::move(domain), std::move(tuples));
}

StatusOr<Dataset> Dataset::WithTuple(size_t id, ValueIndex value) const {
  if (id >= tuples_.size()) {
    return Status::OutOfRange("tuple id out of range");
  }
  if (value >= domain_->size()) {
    return Status::OutOfRange("value outside domain");
  }
  std::vector<ValueIndex> tuples = tuples_;
  tuples[id] = value;
  return Dataset(domain_, std::move(tuples));
}

StatusOr<Histogram> Dataset::CompleteHistogram() const {
  if (domain_->size() > kMaxMaterializedDomain) {
    return Status::ResourceExhausted(
        "domain too large to materialize a complete histogram");
  }
  Histogram h(domain_->size());
  for (ValueIndex t : tuples_) h.Add(t);
  return h;
}

Histogram Dataset::PartitionedHistogram(
    const std::function<uint64_t(ValueIndex)>& bucket_of,
    size_t num_buckets) const {
  Histogram h(num_buckets);
  for (ValueIndex t : tuples_) h.Add(bucket_of(t));
  return h;
}

std::vector<std::vector<double>> Dataset::Points() const {
  std::vector<std::vector<double>> points;
  points.reserve(tuples_.size());
  for (ValueIndex t : tuples_) points.push_back(domain_->Point(t));
  return points;
}

StatusOr<std::shared_ptr<const ColumnarTable>> Dataset::columns() const {
  BLOWFISH_ASSIGN_OR_RETURN(ColumnarTable table,
                            ColumnarTable::FromRows(domain_, tuples_));
  return std::make_shared<const ColumnarTable>(std::move(table));
}

}  // namespace blowfish
