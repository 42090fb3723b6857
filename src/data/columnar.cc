#include "data/columnar.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace blowfish {

namespace {

/// Cap for the presence-array encoding path: attributes with at most
/// this many levels are encoded with an O(|A| + n) dense lookup; larger
/// ones fall back to sort + binary search (O(n log k)). Purely a
/// load-time strategy choice — the resulting table is identical.
constexpr uint64_t kMaxDenseLookupLevels = uint64_t{1} << 22;

}  // namespace

StatusOr<ColumnarTable> ColumnarTable::FromRows(
    std::shared_ptr<const Domain> domain,
    const std::vector<ValueIndex>& rows) {
  const size_t n = rows.size();
  if (n >= std::numeric_limits<uint32_t>::max()) {
    return Status::ResourceExhausted(
        "table too large for 32-bit dense value ids (" +
        std::to_string(n) + " rows)");
  }
  const size_t m = domain->num_attributes();
  // Null-free guarantee: every row must be a value of the domain before
  // any column is decoded from it.
  for (ValueIndex r : rows) {
    if (r >= domain->size()) {
      return Status::OutOfRange("row value " + std::to_string(r) +
                                " outside domain of size " +
                                std::to_string(domain->size()));
    }
  }
  std::vector<uint64_t> strides(m, 1);
  for (size_t j = m; j-- > 1;) {
    strides[j - 1] = strides[j] * domain->attribute(j).cardinality;
  }

  std::vector<Column> columns(m);
  std::vector<uint64_t> levels(n);
  for (size_t j = 0; j < m; ++j) {
    const uint64_t card = domain->attribute(j).cardinality;
    // Per-attribute levels; the div/mod chain runs once, at load, so no
    // scan kernel ever re-derives coordinates.
    const uint64_t stride = strides[j];
    for (size_t i = 0; i < n; ++i) {
      levels[i] = (rows[i] / stride) % card;
    }
    Column& column = columns[j];
    column.ids.resize(n);
    if (card <= kMaxDenseLookupLevels) {
      // Dense path: mark observed levels, assign ascending dense ids.
      std::vector<uint32_t> id_of(card, 0);
      std::vector<uint8_t> seen(card, 0);
      for (size_t i = 0; i < n; ++i) seen[levels[i]] = 1;
      column.dict.reserve(64);
      for (uint64_t level = 0; level < card; ++level) {
        if (seen[level]) {
          id_of[level] = static_cast<uint32_t>(column.dict.size());
          column.dict.push_back(level);
        }
      }
      for (size_t i = 0; i < n; ++i) {
        column.ids[i] = id_of[levels[i]];
      }
    } else {
      // Sparse path: sort the observed levels into the dictionary, then
      // binary-search each row's level. Same table, no O(|A|) scratch.
      column.dict = levels;
      std::sort(column.dict.begin(), column.dict.end());
      column.dict.erase(
          std::unique(column.dict.begin(), column.dict.end()),
          column.dict.end());
      for (size_t i = 0; i < n; ++i) {
        column.ids[i] = static_cast<uint32_t>(
            std::lower_bound(column.dict.begin(), column.dict.end(),
                             levels[i]) -
            column.dict.begin());
      }
    }
  }
  return ColumnarTable(std::move(domain), std::move(columns), n);
}

}  // namespace blowfish
