#include "data/scan.h"

#include <cstdint>
#include <vector>

#include "core/dataset.h"

namespace blowfish {

namespace {

/// Per-column ValueIndex contributions: contrib[id] = dict[id] * stride.
/// k-sized, so the per-row reassembly is one uint32 load + one lookup
/// per column with no div/mod.
std::vector<uint64_t> ColumnContrib(const ColumnarTable& table, size_t attr,
                                    uint64_t stride) {
  const std::vector<uint64_t>& dict = table.dictionary(attr);
  std::vector<uint64_t> contrib(dict.size());
  for (size_t id = 0; id < dict.size(); ++id) {
    contrib[id] = dict[id] * stride;
  }
  return contrib;
}

uint64_t StrideOf(const Domain& domain, size_t attr) {
  uint64_t stride = 1;
  for (size_t j = domain.num_attributes(); j-- > attr + 1;) {
    stride *= domain.attribute(j).cardinality;
  }
  return stride;
}

/// Dense per-id counts of one column: counts[id] = rows with dense id
/// `id`.
std::vector<uint64_t> ScanColumnCounts(const ColumnarTable& table,
                                       size_t attr) {
  std::vector<uint64_t> counts(table.dictionary(attr).size(), 0);
  const uint32_t* ids = table.ids(attr).data();
  const size_t n = table.num_rows();
  for (size_t i = 0; i < n; ++i) ++counts[ids[i]];
  return counts;
}

}  // namespace

StatusOr<Histogram> ScanCompleteHistogram(const ColumnarTable& table) {
  const Domain& domain = table.domain();
  if (domain.size() > Dataset::kMaxMaterializedDomain) {
    return Status::ResourceExhausted(
        "domain too large to materialize a complete histogram");
  }
  const size_t n = table.num_rows();
  Histogram h(domain.size());
  if (table.num_columns() == 1) {
    // 1-D fast path: count dense ids (k slots, not |T| slots), then
    // scatter through the sorted dictionary.
    const std::vector<uint64_t> counts = ScanColumnCounts(table, 0);
    const std::vector<uint64_t>& dict = table.dictionary(0);
    for (size_t id = 0; id < counts.size(); ++id) {
      h[dict[id]] = static_cast<double>(counts[id]);
    }
    return h;
  }
  // Joint path: reassemble each row's ValueIndex from per-column
  // contribution tables (no div/mod), count in one pass.
  std::vector<std::vector<uint64_t>> contribs;
  contribs.reserve(table.num_columns());
  for (size_t j = 0; j < table.num_columns(); ++j) {
    contribs.push_back(ColumnContrib(table, j, StrideOf(domain, j)));
  }
  if (table.num_columns() == 2) {
    const uint64_t* c0 = contribs[0].data();
    const uint64_t* c1 = contribs[1].data();
    const uint32_t* id0 = table.ids(0).data();
    const uint32_t* id1 = table.ids(1).data();
    for (size_t i = 0; i < n; ++i) {
      h.Add(c0[id0[i]] + c1[id1[i]]);
    }
    return h;
  }
  std::vector<uint64_t> values(n, 0);
  for (size_t j = 0; j < table.num_columns(); ++j) {
    const uint64_t* contrib = contribs[j].data();
    const uint32_t* ids = table.ids(j).data();
    for (size_t i = 0; i < n; ++i) values[i] += contrib[ids[i]];
  }
  for (uint64_t v : values) h.Add(v);
  return h;
}

}  // namespace blowfish
