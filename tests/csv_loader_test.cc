#include "data/csv_loader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "obs/metrics.h"

namespace blowfish {
namespace {

CsvColumnSpec LossColumn() {
  CsvColumnSpec spec;
  spec.column = 1;
  spec.attribute = Attribute{"capital_loss", 4357, 1.0};
  return spec;
}

TEST(CsvLoaderTest, LoadsSingleColumn) {
  const char* csv =
      "age,capital_loss\n"
      "39,0\n"
      "50,1902\n"
      "38,0\n";
  Dataset d = LoadCsv(csv, {LossColumn()}).value();
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.tuple(0), 0u);
  EXPECT_EQ(d.tuple(1), 1902u);
  EXPECT_EQ(d.domain().size(), 4357u);
}

TEST(CsvLoaderTest, NoHeaderOption) {
  CsvOptions opts;
  opts.has_header = false;
  Dataset d = LoadCsv("1,42\n2,43\n", {LossColumn()}, opts).value();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.tuple(0), 42u);
}

TEST(CsvLoaderTest, MultiColumnCrossProduct) {
  CsvColumnSpec a;
  a.column = 0;
  a.attribute = Attribute{"a", 4, 1.0};
  CsvColumnSpec b;
  b.column = 2;
  b.attribute = Attribute{"b", 8, 1.0};
  Dataset d =
      LoadCsv("a,skip,b\n1,x,5\n3,y,7\n", {a, b}).value();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.domain().size(), 32u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(0), 0), 1u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(0), 1), 5u);
}

TEST(CsvLoaderTest, BinningAndOffset) {
  CsvColumnSpec spec;
  spec.column = 0;
  spec.attribute = Attribute{"salary", 10, 1.0};
  spec.bin_width = 1000.0;
  spec.offset = 20000.0;
  Dataset d =
      LoadCsv("salary\n20000\n24500\n29999\n", {spec}).value();
  EXPECT_EQ(d.tuple(0), 0u);
  EXPECT_EQ(d.tuple(1), 4u);
  EXPECT_EQ(d.tuple(2), 9u);
}

TEST(CsvLoaderTest, ClampsOutOfRange) {
  CsvColumnSpec spec;
  spec.column = 0;
  spec.attribute = Attribute{"v", 10, 1.0};
  Dataset d = LoadCsv("v\n-5\n500\n", {spec}).value();
  EXPECT_EQ(d.tuple(0), 0u);
  EXPECT_EQ(d.tuple(1), 9u);
}

TEST(CsvLoaderTest, SkipsBadRowsByDefault) {
  Dataset d =
      LoadCsv("age,loss\n1,2\nbroken\n3,notanumber\n4,5\n",
              {LossColumn()})
          .value();
  EXPECT_EQ(d.size(), 2u);
}

TEST(CsvLoaderTest, StrictModeErrorsOnBadRows) {
  CsvOptions opts;
  opts.skip_bad_rows = false;
  EXPECT_FALSE(
      LoadCsv("age,loss\n1,notanumber\n", {LossColumn()}, opts).ok());
  EXPECT_FALSE(LoadCsv("age,loss\nonlyonecell\n", {LossColumn()}, opts)
                   .ok());
}

TEST(CsvLoaderTest, Validation) {
  EXPECT_FALSE(LoadCsv("a\n1\n", {}).ok());
  CsvColumnSpec bad = LossColumn();
  bad.bin_width = 0.0;
  EXPECT_FALSE(LoadCsv("a,b\n1,2\n", {bad}).ok());
}

TEST(CsvLoaderTest, LoadsFromFile) {
  const char* path = "/tmp/blowfish_csv_loader_test.csv";
  {
    std::ofstream out(path);
    out << "age,capital_loss\n1,100\n2,200\n";
  }
  Dataset d = LoadCsvFile(path, {LossColumn()}).value();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.tuple(1), 200u);
  std::remove(path);
  EXPECT_FALSE(LoadCsvFile("/nonexistent/file.csv", {LossColumn()}).ok());
}

TEST(CsvLoaderTest, RecordsLoadMetrics) {
  // Seconds and rows accumulate across loads; each attribute's
  // cardinality gauge takes the latest load's observed distinct levels.
  CsvColumnSpec age;
  age.column = 0;
  age.attribute = Attribute{"age", 10, 1.0};
  CsvColumnSpec hours;
  hours.column = 1;
  hours.attribute = Attribute{"hours", 8, 1.0};
  obs::MetricsRegistry registry;
  CsvOptions options;
  options.metrics = &registry;

  auto first = LoadCsv("age,hours\n3,1\n3,2\n7,2\n1,2\n", {age, hours},
                       options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const double first_seconds =
      registry.GetDoubleCounter("data_load_seconds")->Value();
  EXPECT_GT(first_seconds, 0.0);
  EXPECT_EQ(registry.GetGauge("data_rows")->Value(), 4);
  EXPECT_EQ(registry.GetGauge("data_column_cardinality{attr=age}")->Value(),
            3);
  EXPECT_EQ(
      registry.GetGauge("data_column_cardinality{attr=hours}")->Value(), 2);

  // The second load's skipped bad row counts neither as a row nor
  // toward the cardinalities.
  auto second =
      LoadCsv("age,hours\n5,0\n5,7\nbad,1\n", {age, hours}, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(registry.GetDoubleCounter("data_load_seconds")->Value(),
            first_seconds);
  EXPECT_EQ(registry.GetGauge("data_rows")->Value(), 6);
  EXPECT_EQ(registry.GetGauge("data_column_cardinality{attr=age}")->Value(),
            1);
  EXPECT_EQ(
      registry.GetGauge("data_column_cardinality{attr=hours}")->Value(), 2);
}

}  // namespace
}  // namespace blowfish
