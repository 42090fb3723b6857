// Columnar, dictionary-encoded dataset representation.
//
// Each attribute of a row-major `Dataset` is dictionary-encoded into
// dense per-attribute value ids —
//
//   * `ids(attr)`        one contiguous `uint32_t` per row: the row's
//                        dense id within the attribute's observed-value
//                        dictionary,
//   * `dictionary(attr)` the sorted dictionary, dense id -> attribute
//                        level (ascending, so id order IS level order),
//
// so counting a column is a tight `++counts[ids[i]]` loop over a
// `uint32_t` array. The serving path does not use it: the engine counts
// h(D) once per engine with `Dataset::CompleteHistogram`. The table
// remains for the loopback benchmark's per-layer scan timing
// (data/scan.h).
//
// Invariants, established at construction:
//   * null-free: every row has a valid dense id in every column
//     (`FromRows` rejects rows outside the domain);
//   * dictionaries are sorted and duplicate-free.

#ifndef BLOWFISH_DATA_COLUMNAR_H_
#define BLOWFISH_DATA_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/domain.h"
#include "util/status.h"

namespace blowfish {

class ColumnarTable {
 public:
  /// Dictionary-encodes `rows` (row-major ValueIndex tuples over
  /// `domain`). Fails on rows outside the domain (the null-free
  /// guarantee) and on tables too large for 32-bit dense ids.
  static StatusOr<ColumnarTable> FromRows(
      std::shared_ptr<const Domain> domain,
      const std::vector<ValueIndex>& rows);

  const Domain& domain() const { return *domain_; }

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Dense value ids of attribute `attr`, one per row (contiguous).
  const std::vector<uint32_t>& ids(size_t attr) const {
    return columns_[attr].ids;
  }

  /// Sorted dictionary of attribute `attr`: dense id -> attribute level.
  const std::vector<uint64_t>& dictionary(size_t attr) const {
    return columns_[attr].dict;
  }

 private:
  struct Column {
    std::vector<uint32_t> ids;
    std::vector<uint64_t> dict;
  };

  ColumnarTable(std::shared_ptr<const Domain> domain,
                std::vector<Column> columns, size_t num_rows)
      : domain_(std::move(domain)), columns_(std::move(columns)),
        num_rows_(num_rows) {}

  std::shared_ptr<const Domain> domain_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace blowfish

#endif  // BLOWFISH_DATA_COLUMNAR_H_
