#include "util/parse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "data/csv_loader.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace blowfish {
namespace {

/// Whether a one-column CSV whose only row is `cell` loads that row.
bool CsvAcceptsCell(const std::string& cell) {
  CsvColumnSpec v;
  v.column = 0;
  v.attribute = Attribute{"v", 10, 1.0};
  obs::MetricsRegistry registry;
  CsvOptions options;
  options.metrics = &registry;
  auto data = LoadCsv("v\n" + cell + "\n", {v}, options);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.ok() && data->size() == 1;
}

// One grammar on both surfaces: request/config/flag numbers
// (ParseFiniteDouble) and CSV cells take and refuse the same tokens,
// except that CSV cells refuse subnormals.
TEST(ParseTest, OneNumberGrammarOnBothSurfaces) {
  struct Case {
    std::string text;
    bool number;  // ParseFiniteDouble accepts it
    bool cell;    // a CSV cell accepts it
  };
  const Case cases[] = {
      {"0.5", true, true},
      {"5e-3", true, true},
      {"+4", true, true},
      {"-0", true, true},
      {" 0.5", true, true},
      {"0.5 ", true, true},
      {"\t+0.5\r", true, true},
      {"0x1p-1", false, false},
      {"0X5", false, false},
      {"0x", false, false},
      {"nan", false, false},
      {"-nan", false, false},
      {"NAN", false, false},
      {"inf", false, false},
      {"-inf", false, false},
      {"infinity", false, false},
      {"1e400", false, false},
      {"1e-400", false, false},
      {"+-4", false, false},
      {"0.5x", false, false},
      {"", false, false},
      {" ", false, false},
      // %.17g of the smallest subnormal, and another subnormal.
      {"4.9406564584124654e-324", true, false},
      {"1e-310", true, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("'" + c.text + "'");
    EXPECT_EQ(ParseFiniteDouble(c.text, "test").ok(), c.number);
    double value = 0.0;
    EXPECT_EQ(ParseDecimal(c.text, &value), c.number);
    EXPECT_EQ(CsvAcceptsCell(c.text), c.cell);
  }
  EXPECT_EQ(ParseFiniteDouble("4.9406564584124654e-324", "test").value(),
            std::nextafter(0.0, 1.0));
  EXPECT_EQ(ParseFiniteDouble(" 0.5 ", "test").value(), 0.5);
  EXPECT_EQ(ParseFiniteDouble("0x1p-1", "--eps").status().code(),
            StatusCode::kInvalidArgument);
}

// A number written with %.17g (wire frames, ledgers) reads back bit for
// bit, subnormals included.
TEST(ParseTest, PrintedDoublesReadBack) {
  Random rng(20141);
  size_t subnormals = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = rng.engine()();
    // Every fourth draw is a subnormal: exponent bits cleared.
    if (i % 4 == 0) bits &= ~(uint64_t{0x7ff} << 52);
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    if (std::fpclassify(value) == FP_SUBNORMAL) ++subnormals;
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    auto parsed = ParseFiniteDouble(text, "test");
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    uint64_t back = 0;
    std::memcpy(&back, &*parsed, sizeof(back));
    EXPECT_EQ(back, bits) << text;
  }
  EXPECT_GT(subnormals, 4000u);
}

}  // namespace
}  // namespace blowfish
