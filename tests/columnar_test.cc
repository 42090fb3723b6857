// Columnar dictionary-encoded representation (data/columnar.h) and its
// complete-histogram kernel (data/scan.h): every id decodes to its row's
// level over seeded random datasets, the dictionary invariants (sorted,
// duplicate-free, observed levels only), and bit-exact agreement of the
// kernel with the row-major Dataset::CompleteHistogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/domain.h"
#include "data/columnar.h"
#include "data/scan.h"
#include "util/random.h"

namespace blowfish {
namespace {

std::shared_ptr<const Domain> MakeDomain(std::vector<Attribute> attrs) {
  return std::make_shared<const Domain>(Domain::Create(attrs).value());
}

std::vector<ValueIndex> RandomRows(const Domain& domain, size_t n,
                                   uint64_t seed) {
  Random rng(seed);
  std::vector<ValueIndex> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(static_cast<ValueIndex>(
        rng.UniformInt(0, static_cast<int64_t>(domain.size()) - 1)));
  }
  return rows;
}

/// The property-test fixtures: 1-D, multi-attribute, and a shape whose
/// per-attribute cardinalities exceed the dense-lookup sweet spot only
/// jointly (the encoder picks its path per column).
std::vector<std::shared_ptr<const Domain>> PropertyDomains() {
  return {
      MakeDomain({Attribute{"x", 64, 1.0}}),
      MakeDomain({Attribute{"a", 4, 1.0}, Attribute{"b", 17, 1.0}}),
      MakeDomain({Attribute{"a", 3, 1.0}, Attribute{"b", 5, 2.0},
                  Attribute{"c", 11, 1.0}}),
  };
}

TEST(ColumnarTest, EncodeDecodeRoundTripProperty) {
  for (const auto& domain : PropertyDomains()) {
    for (uint64_t seed : {1u, 7u, 42u}) {
      SCOPED_TRACE("domain size " + std::to_string(domain->size()) +
                   " seed " + std::to_string(seed));
      const std::vector<ValueIndex> rows = RandomRows(*domain, 500, seed);
      auto table = ColumnarTable::FromRows(domain, rows);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ASSERT_EQ(table->num_rows(), rows.size());
      ASSERT_EQ(table->num_columns(), domain->num_attributes());
      for (size_t i = 0; i < rows.size(); ++i) {
        const std::vector<uint64_t> coords = domain->Decode(rows[i]);
        for (size_t j = 0; j < coords.size(); ++j) {
          ASSERT_EQ(table->dictionary(j)[table->ids(j)[i]], coords[j])
              << "row " << i << " attr " << j;
        }
      }
    }
  }
}

TEST(ColumnarTest, DictionariesSortedUniqueWithObservedCardinality) {
  // A sparse column: cardinality 4096 but only a handful of observed
  // levels (the adult capital-loss shape) — the dictionary must hold
  // exactly the observed set, ascending, and every id must index it.
  auto domain = MakeDomain({Attribute{"sparse", 4096, 1.0}});
  std::vector<ValueIndex> rows;
  const std::vector<uint64_t> levels = {7, 0, 4095, 7, 1024, 0, 7};
  for (uint64_t level : levels) rows.push_back(level);
  auto table = ColumnarTable::FromRows(domain, rows);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  const std::set<uint64_t> observed(levels.begin(), levels.end());
  const std::vector<uint64_t>& dict = table->dictionary(0);
  EXPECT_EQ(std::vector<uint64_t>(observed.begin(), observed.end()), dict);
  EXPECT_TRUE(std::is_sorted(dict.begin(), dict.end()));
  EXPECT_EQ(std::adjacent_find(dict.begin(), dict.end()), dict.end());
  for (uint32_t id : table->ids(0)) {
    EXPECT_LT(id, dict.size());
  }
}

TEST(ColumnarTest, EmptyDatasetEncodes) {
  auto domain = MakeDomain({Attribute{"a", 4, 1.0}, Attribute{"b", 8, 1.0}});
  auto table = ColumnarTable::FromRows(domain, {});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_TRUE(table->dictionary(0).empty());
  EXPECT_TRUE(table->dictionary(1).empty());
  auto hist = ScanCompleteHistogram(*table);
  ASSERT_TRUE(hist.ok());
  EXPECT_DOUBLE_EQ(hist->Total(), 0.0);
  EXPECT_EQ(hist->size(), domain->size());
}

TEST(ColumnarTest, RejectsRowsOutsideTheDomain) {
  // The null-free guarantee: a row that is not a domain value must be
  // refused at construction, not mapped to garbage ids.
  auto domain = MakeDomain({Attribute{"a", 4, 1.0}});
  auto table = ColumnarTable::FromRows(domain, {0, 3, 4});
  EXPECT_FALSE(table.ok());
}

TEST(ColumnarTest, ScanCompleteHistogramBitIdenticalToRowMajor) {
  for (const auto& domain : PropertyDomains()) {
    for (uint64_t seed : {3u, 19u}) {
      SCOPED_TRACE("domain size " + std::to_string(domain->size()) +
                   " seed " + std::to_string(seed));
      Dataset data =
          Dataset::Create(domain, RandomRows(*domain, 777, seed)).value();
      auto reference = data.CompleteHistogram();
      ASSERT_TRUE(reference.ok());
      auto columns = data.columns();
      ASSERT_TRUE(columns.ok()) << columns.status().ToString();
      auto scanned = ScanCompleteHistogram(**columns);
      ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
      // Bit-exact, not approximate: counts are integers, exact in
      // doubles, and the kernels count the same multiset.
      EXPECT_EQ(scanned->counts(), reference->counts());
    }
  }
}

}  // namespace
}  // namespace blowfish
