#include "data/csv_loader.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "util/random.h"

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
  // An integer cell, read in place, takes the same floor, divide and
  // clamp as the same number written any other way: here
  // floor((v - 3) / 2.5), clamped into [0, 9].
  spec.attribute = Attribute{"v", 10, 1.0};
  spec.bin_width = 2.5;
  spec.offset = 3.0;
  const std::pair<std::string, ValueIndex> cells[] = {
      {"0", 0},  {"2", 0},  {"3", 0},    {"5", 0},  {"6", 1},
      {"8", 2},  {"13", 4}, {"13.0", 4}, {"25", 8}, {"27", 9},
      {"28", 9}, {"99", 9}, {"008", 2},  {"8\r", 2}};
  std::string text = "v\n";
  std::vector<ValueIndex> want;
  for (const auto& [cell, level] : cells) {
    text += cell + "\n";
    want.push_back(level);
  }
  EXPECT_EQ(LoadCsv(text, {spec}).value().tuples(), want);
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

// The accepted cell grammar, pinned case by case: leading whitespace,
// one leading '+', and trailing whitespace (a CRLF file's '\r') around
// a decimal number.
TEST(CsvLoaderTest, CellGrammar) {
  CsvColumnSpec spec;
  spec.column = 0;
  spec.attribute = Attribute{"v", 10, 1.0};
  CsvOptions opts;
  opts.has_header = false;
  opts.skip_bad_rows = false;
  auto level = [&](const std::string& cell) -> StatusOr<ValueIndex> {
    BLOWFISH_ASSIGN_OR_RETURN(Dataset d, LoadCsv(cell + "\n", {spec}, opts));
    if (d.size() != 1) return Status::Internal("not one row");
    return d.tuple(0);
  };
  const std::pair<std::string, ValueIndex> accepted[] = {
      {"4", 4},    {" 4", 4},  {"\t4", 4}, {"+4", 4},  {"4 ", 4},
      {"4\r", 4},  {" +4 ", 4}, {".5", 0},  {"5.", 5},  {"-0", 0},
      {"4.9", 4},  {"4e0", 4}, {"0.4e1", 4}, {"-3", 0}, {"1e3", 9}};
  for (const auto& [cell, want] : accepted) {
    auto got = level(cell);
    ASSERT_TRUE(got.ok()) << "'" << cell << "': " << got.status().ToString();
    EXPECT_EQ(*got, want) << "'" << cell << "'";
  }
  for (const std::string cell :
       {" ", "\r", "x", "4x", "4 4", "++4", "+-4", "- 4", "+ 4", ".", "-",
        "e5", "1e-400"}) {
    EXPECT_FALSE(level(cell).ok()) << "'" << cell << "'";
  }
}

TEST(CsvLoaderTest, LineStructure) {
  CsvColumnSpec v;
  v.column = 0;
  v.attribute = Attribute{"v", 10, 1.0};
  auto tuples = [&](const std::string& text, const CsvColumnSpec& spec) {
    return LoadCsv(text, {spec}).value().tuples();
  };
  using Tuples = std::vector<ValueIndex>;
  // CRLF line endings: the header and every cell keep their '\r', which
  // the cell grammar reads as trailing whitespace.
  EXPECT_EQ(tuples("v\r\n1\r\n2\r\n", v), (Tuples{1, 2}));
  // A blank line is no row; a last line needs no '\n'.
  EXPECT_EQ(tuples("v\n1\n\n2\n", v), (Tuples{1, 2}));
  EXPECT_EQ(tuples("v\n1\n2", v), (Tuples{1, 2}));
  // The first line is the header whatever it holds, even when blank.
  EXPECT_EQ(tuples("\n3\n", v), (Tuples{3}));
  EXPECT_EQ(tuples("7\n3\n", v), (Tuples{3}));
  // A header-only file, with or without its '\n', is an empty dataset.
  EXPECT_TRUE(tuples("v\n", v).empty());
  EXPECT_TRUE(tuples("v", v).empty());
  EXPECT_TRUE(tuples("", v).empty());
  EXPECT_TRUE(tuples("v\r\n", v).empty());
  EXPECT_TRUE(tuples("v\n\n\n", v).empty());
  EXPECT_EQ(tuples("v\n\n5\n\n", v), (Tuples{5}));
  // Without a header, blank lines are still no rows.
  CsvOptions no_header;
  no_header.has_header = false;
  EXPECT_EQ(LoadCsv("\n\n3\n\n12", {v}, no_header).value().tuples(),
            (Tuples{3, 9}));
  // A trailing separator makes an empty last cell, which is bad.
  CsvColumnSpec second = v;
  second.column = 1;
  EXPECT_EQ(tuples("v\n4,\n", v), (Tuples{4}));
  EXPECT_TRUE(tuples("v\n4,\n", second).empty());
  EXPECT_TRUE(tuples("v\n4,,\n", second).empty());
  EXPECT_TRUE(tuples("v\n4\n", second).empty());  // too few columns
  EXPECT_EQ(tuples("v\n4,5,\n", second), (Tuples{5}));
  EXPECT_EQ(tuples("a,b\r\n4,5\r\n", second), (Tuples{5}));
  // A column past any line's end is too few columns; the largest one
  // must not wrap the loader's cell count.
  for (const size_t column :
       {size_t{1} << 20, std::numeric_limits<size_t>::max()}) {
    CsvColumnSpec far = v;
    far.column = column;
    EXPECT_TRUE(tuples("v\n4,5\n", far).empty());
    CsvOptions strict;
    strict.skip_bad_rows = false;
    EXPECT_FALSE(LoadCsv("v\n4,5\n", {far}, strict).ok());
  }
  // A CRLF blank line is a row of one whitespace cell: a bad row.
  EXPECT_EQ(tuples("v\r\n1\r\n\r\n2\r\n", v), (Tuples{1, 2}));
}

TEST(CsvLoaderTest, StrictModeNamesTheLine) {
  CsvOptions opts;
  opts.skip_bad_rows = false;
  // Line numbers count the header and blank lines.
  auto loaded =
      LoadCsv("age,loss\n1,2\n\nonlyonecell\n", {LossColumn()}, opts);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("line 4: too few columns"),
            std::string::npos)
      << loaded.status().ToString();
  CsvColumnSpec v;
  v.column = 0;
  v.attribute = Attribute{"v", 10, 1.0};
  EXPECT_FALSE(LoadCsv("v\r\n1\r\n\r\n", {v}, opts).ok());
  EXPECT_FALSE(LoadCsv("v\n1e-400\n", {v}, opts).ok());
  EXPECT_TRUE(LoadCsv("v\n1\n\n2\n", {v}, opts).ok());
  // A row that turns bad after an integer cell, read in place, is named
  // by its line and its first bad cell in the specs' order.
  CsvColumnSpec w = v;
  w.column = 1;
  w.attribute.name = "w";
  const std::pair<std::string, std::string> cases[] = {
      {"a,b\n1,2\n3,4x\n", "line 3: bad cell '4x'"},
      {"a,b\n1,2\n3,x\n5,6\n", "line 3: bad cell 'x'"},
      {"a,b\n1,2\n\n3,4 5\n", "line 4: bad cell '4 5'"},
      {"a,b\r\n1,2\r\n3, \r\n", "line 3: bad cell ' \r'"},
      {"a,b\n1,2\n3\n", "line 3: too few columns"},
      {"a,b\n1,2\n3,-\n", "line 3: bad cell '-'"},
      {"a,b\n1,2\n3,1.\n4,5.5.\n", "line 4: bad cell '5.5.'"}};
  for (const auto& [text, message] : cases) {
    auto refused = LoadCsv(text, {v, w}, opts);
    ASSERT_FALSE(refused.ok()) << text;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(refused.status().message(), message) << text;
  }
  auto refused = LoadCsv("a,b\n1,2\nx,y\n", {w, v}, opts);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().message(), "line 3: bad cell 'y'");
}

TEST(CsvLoaderTest, NonFiniteCellsAreBad) {
  // A NaN level has no integer to be cast to, and an infinite one would
  // be clamped to an end level as if it were data.
  CsvColumnSpec v;
  v.column = 0;
  v.attribute = Attribute{"v", 10, 1.0};
  for (const std::string cell :
       {"nan", "-nan", "NaN", "nan(1)", "inf", "-inf", "+inf", "infinity",
        "1e400", "-1e400"}) {
    const std::string text = "v\n3\n" + cell + "\n4\n";
    auto loaded = LoadCsv(text, {v});
    ASSERT_TRUE(loaded.ok()) << cell << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->tuples(), (std::vector<ValueIndex>{3, 4})) << cell;
    CsvOptions strict;
    strict.skip_bad_rows = false;
    auto refused = LoadCsv(text, {v}, strict);
    ASSERT_FALSE(refused.ok()) << cell;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().message().find("line 3"), std::string::npos)
        << refused.status().ToString();
  }
}

TEST(CsvLoaderTest, HexCellsAreBad) {
  CsvColumnSpec v;
  v.column = 0;
  v.attribute = Attribute{"v", 10, 1.0};
  EXPECT_EQ(LoadCsv("v\n0x5\n0X1p2\n7\n", {v}).value().tuples(),
            (std::vector<ValueIndex>{7}));
}

// A row's cells are read in place by the column each spec names, in the
// specs' order; an unselected cell between them is skipped unread.
TEST(CsvLoaderTest, SelectedColumnsOutOfOrder) {
  auto spec = [](size_t column, const std::string& name) {
    CsvColumnSpec c;
    c.column = column;
    c.attribute = Attribute{name, 10, 1.0};
    return c;
  };
  Dataset d = LoadCsv("b,a\n4,9\n07,1\r\n", {spec(1, "a"), spec(0, "b")})
                  .value();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(0), 0), 9u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(0), 1), 4u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(1), 0), 1u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(1), 1), 7u);
  d = LoadCsv("y,label,x\n3,some text,7\n8,+-x.,1\r\n12,,0\n",
              {spec(2, "x"), spec(0, "y")})
          .value();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(0), 0), 7u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(0), 1), 3u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(1), 0), 1u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(1), 1), 8u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(2), 0), 0u);
  EXPECT_EQ(d.domain().Coordinate(d.tuple(2), 1), 9u);  // 12, clamped
}

// 15 digits are the most the in-place read takes: every such integer is
// an exact double. 16 or more go through ParseDecimal, which rounds.
TEST(CsvLoaderTest, FifteenAndSixteenDigitCells) {
  CsvColumnSpec spec;
  spec.column = 0;
  spec.attribute = Attribute{"v", uint64_t{1} << 62, 1.0};
  // The level of an integer cell is its value rounded to a double.
  auto rounded = [](uint64_t v) {
    return static_cast<ValueIndex>(static_cast<double>(v));
  };
  const std::pair<std::string, ValueIndex> cells[] = {
      {"999999999999999", 999999999999999},
      {"000000000000001", 1},
      {"9007199254740993", rounded(9007199254740993)},  // 2^53 + 1
      {"9999999999999999", rounded(9999999999999999)},
      {"0000000000000004", 4},
      {"123456789012345678", rounded(123456789012345678)}};
  std::string text = "v\n";
  std::vector<ValueIndex> want;
  for (const auto& [cell, level] : cells) {
    text += cell + "\n";
    want.push_back(level);
  }
  ASSERT_NE(rounded(9007199254740993), 9007199254740993u);
  EXPECT_EQ(LoadCsv(text, {spec}).value().tuples(), want);
  // A narrow column clamps either read alike.
  spec.attribute = Attribute{"v", 10, 1.0};
  EXPECT_EQ(LoadCsv(text, {spec}).value().tuples(),
            (std::vector<ValueIndex>{9, 1, 9, 9, 4, 9}));
}

// The loader as it was before the one-pass rewrite: a getline splitter
// and std::stod per cell. The differential test below holds the loader
// to it on generated text.
StatusOr<double> ReferenceParseCell(const std::string& cell) {
  try {
    size_t pos = 0;
    double v = std::stod(cell, &pos);
    // Allow trailing spaces only.
    while (pos < cell.size() &&
           std::isspace(static_cast<unsigned char>(cell[pos]))) {
      ++pos;
    }
    if (pos != cell.size()) {
      return Status::InvalidArgument("non-numeric cell: '" + cell + "'");
    }
    return v;
  } catch (...) {
    return Status::InvalidArgument("non-numeric cell: '" + cell + "'");
  }
}

/// Also counts the rows it skipped into `skipped`.
StatusOr<std::vector<ValueIndex>> ReferenceLoad(
    const std::string& text, const std::vector<CsvColumnSpec>& columns,
    const CsvOptions& options, int64_t* skipped) {
  *skipped = 0;
  std::vector<Attribute> attrs;
  size_t max_column = 0;
  for (const CsvColumnSpec& c : columns) {
    attrs.push_back(c.attribute);
    max_column = std::max(max_column, c.column);
  }
  const Domain domain = Domain::Create(attrs).value();
  std::vector<ValueIndex> tuples;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (first && options.has_header) {
      first = false;
      continue;
    }
    first = false;
    if (line.empty()) continue;
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream row(line);
    while (std::getline(row, cell, options.separator)) {
      cells.push_back(cell);
    }
    if (cells.size() <= max_column) {
      if (options.skip_bad_rows) {
        ++*skipped;
        continue;
      }
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": too few columns");
    }
    std::vector<uint64_t> coords(columns.size());
    bool bad = false;
    for (size_t i = 0; i < columns.size(); ++i) {
      const CsvColumnSpec& spec = columns[i];
      const std::string& text_cell = cells[spec.column];
      StatusOr<double> value = ReferenceParseCell(text_cell);
      // The two intended changes: hex and non-finite cells, which the
      // reference accepted, are bad cells now.
      if (value.ok() &&
          (!std::isfinite(*value) ||
           text_cell.find_first_of("xX") != std::string::npos)) {
        value = Status::InvalidArgument("changed cell");
      }
      if (!value.ok()) {
        if (options.skip_bad_rows) {
          bad = true;
          break;
        }
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": bad cell '" + text_cell + "'");
      }
      double level = std::floor((*value - spec.offset) / spec.bin_width);
      if (level < 0) level = 0;
      double max_level =
          static_cast<double>(spec.attribute.cardinality - 1);
      if (level > max_level) level = max_level;
      coords[i] = static_cast<uint64_t>(level);
    }
    if (bad) {
      ++*skipped;
      continue;
    }
    tuples.push_back(domain.Encode(coords));
  }
  return tuples;
}

std::string Pick(Random& rng, const std::vector<std::string>& options) {
  return options[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
}

std::string RandomDigits(Random& rng, int64_t max_len) {
  std::string out;
  for (int64_t n = rng.UniformInt(1, max_len); n > 0; --n) {
    out += static_cast<char>('0' + rng.UniformInt(0, 9));
  }
  return out;
}

/// One cell: a well-formed number in some dress, a token at the
/// grammar's edge, or a random string over the grammar's alphabet.
std::string RandomCell(Random& rng, char separator) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return "";
    case 1:
      return Pick(rng, {" 4", "+4", "4 ", "4\r", "\t+4\t", ".5", "5.", "-0",
                        "+-4", "-+4", "++4", "+ 4", "1e-400", "1e400",
                        "1e-310", "4e-308", "nan", "-nan", "inf", "-inf",
                        "infinity", "0x5", "0x", "1e", "1e+", "-", ".",
                        "+", "e5", "5e-3", "\r", " "});
    case 2: {
      std::string num = Pick(rng, {"", "", " ", "\t", "\r"});
      num += Pick(rng, {"", "", "-", "+"});
      if (rng.Bernoulli(0.8)) num += RandomDigits(rng, 4);
      if (rng.Bernoulli(0.3)) num += "." + RandomDigits(rng, 3);
      if (rng.Bernoulli(0.2)) {
        num += "e" + Pick(rng, {"", "-", "+"}) + RandomDigits(rng, 3);
      }
      num += Pick(rng, {"", "", " ", "\r", " \r"});
      return num;
    }
    default: {
      const std::string alphabet =
          std::string("0123456789.-+e \t\rxnaif") + separator;
      std::string out;
      for (int64_t n = rng.UniformInt(1, 6); n > 0; --n) {
        out += alphabet[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(alphabet.size()) - 1))];
      }
      return out;
    }
  }
}

/// A cell of 1 to 20 digits, often with leading zeros, whose value is
/// near the test columns' cardinalities (7, 9, 50), at the edge of the
/// in-place read (15 and 16 digits), or far past both. One in ten gets a
/// stray 'x', space, '.' or '-' somewhere.
std::string IntegerCell(Random& rng) {
  std::string digits;
  switch (rng.UniformInt(0, 3)) {
    case 0:
    case 1:
      digits = std::to_string(rng.UniformInt(0, 60));
      break;
    case 2:
      digits = RandomDigits(rng, 20);
      break;
    default:
      digits = Pick(rng, {"6", "7", "8", "9", "49", "50", "51",
                          "999999999999999", "100000000000000",
                          "9007199254740993", "9999999999999999",
                          "18446744073709551616", "99999999999999999999"});
  }
  if (rng.Bernoulli(0.3)) {
    const size_t zeros = std::min<size_t>(
        static_cast<size_t>(rng.UniformInt(1, 5)), 20 - digits.size());
    digits.insert(0, zeros, '0');
  }
  if (rng.Bernoulli(0.1)) {
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(digits.size())));
    digits.insert(at, 1, Pick(rng, {"x", " ", ".", "-"})[0]);
  }
  return digits;
}

/// A row of integer cells: usually the three the test columns read,
/// sometimes with extra trailing cells, sometimes too short.
std::string IntegerRow(Random& rng, char separator) {
  int64_t cells = 3;
  if (rng.Bernoulli(0.2)) cells += rng.UniformInt(1, 2);
  if (rng.Bernoulli(0.1)) cells = rng.UniformInt(1, 2);
  std::string row;
  for (int64_t cell = 0; cell < cells; ++cell) {
    if (cell > 0) row += separator;
    row += IntegerCell(rng);
  }
  return row;
}

std::string RandomCsv(Random& rng, char separator) {
  std::string text;
  for (int64_t line = rng.UniformInt(0, 12); line > 0; --line) {
    if (rng.Bernoulli(0.1)) {
      text += Pick(rng, {"", "\r"});
    } else if (rng.Bernoulli(0.5)) {
      text += IntegerRow(rng, separator);
    } else {
      for (int64_t cell = rng.UniformInt(1, 5); cell > 0; --cell) {
        text += RandomCell(rng, separator);
        if (cell > 1 || rng.Bernoulli(0.1)) text += separator;
      }
    }
    if (line > 1 || rng.Bernoulli(0.7)) {
      text += rng.Bernoulli(0.3) ? "\r\n" : "\n";
    }
  }
  return text;
}

/// The "line N" that an error message starts with.
std::string ErrorLine(const Status& status) {
  return status.message().substr(0, status.message().find(':'));
}

TEST(CsvLoaderTest, MatchesTheReferenceLoader) {
  CsvColumnSpec plain;
  plain.column = 0;
  plain.attribute = Attribute{"a", 50, 1.0};
  CsvColumnSpec binned;
  binned.column = 2;
  binned.attribute = Attribute{"b", 7, 1.0};
  binned.bin_width = 0.5;
  binned.offset = -3.0;
  CsvColumnSpec wide;
  wide.column = 1;
  wide.attribute = Attribute{"c", 9, 1.0};
  wide.bin_width = 2.5;
  wide.offset = 1.5;
  const std::vector<std::vector<CsvColumnSpec>> specs = {
      {plain}, {binned}, {binned, plain}, {plain, wide, binned}};
  Random rng(20260418);
  size_t rows = 0;
  size_t refused = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const char separator = trial % 5 == 4 ? '\t' : ',';
    const std::string text = RandomCsv(rng, separator);
    for (const auto& columns : specs) {
      for (const bool has_header : {true, false}) {
        for (const bool skip : {true, false}) {
          obs::MetricsRegistry registry;
          CsvOptions options;
          options.has_header = has_header;
          options.separator = separator;
          options.skip_bad_rows = skip;
          options.metrics = &registry;
          int64_t want_skipped = 0;
          auto want = ReferenceLoad(text, columns, options, &want_skipped);
          auto got = LoadCsv(text, columns, options);
          ASSERT_EQ(got.ok(), want.ok())
              << "text '" << text << "' header=" << has_header
              << " skip=" << skip << " columns=" << columns.size() << ": "
              << (got.ok() ? want.status() : got.status()).ToString();
          if (!want.ok()) {
            ++refused;
            EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
            // The two split "4," differently (the reference drops the
            // empty last cell), so the reasons may differ; the line
            // may not.
            EXPECT_EQ(ErrorLine(got.status()), ErrorLine(want.status()))
                << "text '" << text << "'";
            continue;
          }
          ASSERT_EQ(got->tuples(), *want) << "text '" << text << "'";
          EXPECT_EQ(registry.GetGauge("data_rows_skipped")->Value(),
                    want_skipped)
              << "text '" << text << "'";
          rows += want->size();
        }
      }
    }
  }
  // The generator reaches both outcomes often.
  EXPECT_GT(rows, 10000u);
  EXPECT_GT(refused, 10000u);
}

TEST(CsvLoaderTest, Validation) {
  EXPECT_FALSE(LoadCsv("a\n1\n", {}).ok());
  CsvColumnSpec bad = LossColumn();
  bad.bin_width = 0.0;
  EXPECT_FALSE(LoadCsv("a,b\n1,2\n", {bad}).ok());
  // A non-finite bin_width or offset would make levels NaN.
  bad.bin_width = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(LoadCsv("a,b\n1,2\n", {bad}).ok());
  bad = LossColumn();
  bad.offset = std::numeric_limits<double>::quiet_NaN();
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

/// What one load returned: its status, and on success its tuples and
/// the gauges it recorded into a fresh registry.
struct LoadResult {
  std::string status;
  std::vector<ValueIndex> tuples;
  int64_t rows = 0;
  int64_t skipped = 0;
  /// data_column_cardinality of each column, in the specs' order.
  std::vector<int64_t> cardinalities;
};

LoadResult Summarize(const StatusOr<Dataset>& loaded,
                     const std::vector<CsvColumnSpec>& columns,
                     obs::MetricsRegistry& registry) {
  LoadResult result;
  result.status = loaded.status().ToString();
  if (loaded.ok()) {
    result.tuples = loaded->tuples();
    result.rows = registry.GetGauge("data_rows")->Value();
    result.skipped = registry.GetGauge("data_rows_skipped")->Value();
    for (const CsvColumnSpec& c : columns) {
      result.cardinalities.push_back(
          registry
              .GetGauge("data_column_cardinality{attr=" + c.attribute.name +
                        "}")
              ->Value());
    }
  }
  return result;
}

void ExpectSameLoad(const LoadResult& got, const LoadResult& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.tuples, want.tuples);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.skipped, want.skipped);
  EXPECT_EQ(got.cardinalities, want.cardinalities);
}

LoadResult LoadInMemory(const std::string& text,
                        const std::vector<CsvColumnSpec>& columns,
                        CsvOptions options) {
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  return Summarize(LoadCsv(text, columns, options), columns, registry);
}

LoadResult LoadFromPath(const std::string& path,
                        const std::vector<CsvColumnSpec>& columns,
                        CsvOptions options) {
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  return Summarize(LoadCsvFile(path, columns, options), columns, registry);
}

/// Cuts every load in its scope into `ranges` ranges; 0 is the loader's
/// own rule.
class ScopedRanges {
 public:
  explicit ScopedRanges(size_t ranges) {
    internal::SetCsvRangesForTesting(ranges);
  }
  ~ScopedRanges() { internal::SetCsvRangesForTesting(0); }
};

/// Writes `text` to a file, returning its path.
std::string WriteTempFile(const std::string& text, const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

/// Writes `text` to a file and expects LoadCsvFile to return what
/// LoadCsv returns for the same bytes, in both bad-row modes.
void ExpectStreamedLoadMatches(const std::string& text,
                               const std::vector<CsvColumnSpec>& columns,
                               CsvOptions options) {
  const std::string path = WriteTempFile(text, "csv_loader_stream.csv");
  for (const bool skip : {true, false}) {
    SCOPED_TRACE(skip ? "skip_bad_rows" : "strict");
    options.skip_bad_rows = skip;
    ExpectSameLoad(LoadFromPath(path, columns, options),
                   LoadInMemory(text, columns, options));
  }
  std::remove(path.c_str());
}

CsvColumnSpec ValueColumn(size_t column) {
  CsvColumnSpec spec;
  spec.column = column;
  spec.attribute = Attribute{"v" + std::to_string(column), 100, 1.0};
  return spec;
}

/// Appends one-cell rows to `text` until it is exactly `size` bytes
/// long; needs at least two bytes to go.
void FillTo(std::string* text, size_t size) {
  while (text->size() + 3 < size) *text += "5\n";
  *text += size - text->size() == 3 ? "15\n" : "5\n";
}

/// `min_blocks` to `max_blocks` blocks of random rows: good, bad, short,
/// blank and padded lines, with LF or CRLF ends, and sometimes no final
/// newline.
std::string RandomLongCsv(Random& rng, int64_t min_blocks = 2,
                          int64_t max_blocks = 4) {
  std::string text = "a,b,c\n";
  const size_t target =
      kCsvReadBlockBytes *
          static_cast<size_t>(rng.UniformInt(min_blocks, max_blocks)) +
      static_cast<size_t>(rng.UniformInt(0, 999));
  const bool crlf = rng.Bernoulli(0.5);
  while (text.size() < target) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
        break;  // blank line
      case 1:
        text += Pick(rng, {"x,1,2", "1", "1,nan,2", "0x5,1,1", ",,"});
        break;
      case 2:
        text += std::string(static_cast<size_t>(rng.UniformInt(0, 3000)),
                            ' ') +
                "7,8,9";
        break;
      default:
        text += std::to_string(rng.UniformInt(0, 120)) + "," +
                std::to_string(rng.UniformInt(0, 99)) + ",+" +
                std::to_string(rng.UniformInt(0, 99)) + " ";
    }
    text += crlf ? "\r\n" : "\n";
  }
  if (rng.Bernoulli(0.5)) text += "42,1,2";  // no final newline
  return text;
}

TEST(CsvLoaderTest, StreamedLoadMatchesInMemoryLoad) {
  const std::vector<CsvColumnSpec> columns = {ValueColumn(2), ValueColumn(0)};
  Random rng(20241019);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string text = RandomLongCsv(rng);
    for (const bool has_header : {true, false}) {
      CsvOptions options;
      options.has_header = has_header;
      ExpectStreamedLoadMatches(text, columns, options);
    }
  }
}

TEST(CsvLoaderTest, StreamedLoadAtBlockEdges) {
  const std::vector<CsvColumnSpec> column = {ValueColumn(0)};
  const size_t block = kCsvReadBlockBytes;
  std::vector<std::pair<std::string, std::string>> cases;
  // A row straddling each of the first three block edges, starting
  // just before, at and just after it.
  for (size_t edge : {block, 2 * block, 3 * block}) {
    for (size_t start : {edge - 3, edge - 1, edge, edge + 1}) {
      std::string text = "v\n";
      FillTo(&text, start);
      text += "42\n17\n";
      cases.emplace_back("row at " + std::to_string(start), text);
    }
  }
  {
    // One line longer than a block: a cell padded past the block.
    std::string text = "v\n";
    FillTo(&text, block - 10);
    text += "4" + std::string(2 * block + 7, ' ') + "\n9\n";
    cases.emplace_back("line longer than a block", text);
  }
  {
    std::string text = "v\r\n";
    while (text.size() < 3 * block) text += "12\r\n3 \r\n";
    cases.emplace_back("CRLF", text);
  }
  {
    std::string text = "v\n";
    FillTo(&text, 2 * block - 1);
    text += "88";
    cases.emplace_back("no final newline across an edge", text);
  }
  cases.emplace_back("header only", "v\n");
  cases.emplace_back("header only, no newline", "v");
  cases.emplace_back("header only, CRLF", "v\r\n");
  cases.emplace_back("empty", "");
  for (size_t at : {block - 1, block}) {
    // A blank line whose '\n' ends a block, or begins one.
    std::string text = "v\n";
    FillTo(&text, at);
    text += "\n33\n";
    cases.emplace_back("blank line at " + std::to_string(at), text);
  }
  for (const char* bad : {"x\n", "\n,\n", "nan\n"}) {
    // A bad row past the first block: strict mode names its line.
    std::string text = "v\n";
    FillTo(&text, 2 * block + 5);
    text += bad;
    text += "6\n";
    cases.emplace_back("bad row past the first block", text);
  }
  for (const auto& [name, text] : cases) {
    SCOPED_TRACE(name);
    ExpectStreamedLoadMatches(text, column, CsvOptions());
  }
  // The strict error names the bad row's line, past the first block.
  std::string text = "v\n";
  FillTo(&text, 2 * block + 5);
  const size_t bad_line =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  text += "x\n6\n";
  CsvOptions strict;
  strict.skip_bad_rows = false;
  auto loaded = LoadInMemory(text, column, strict);
  EXPECT_NE(loaded.status.find("line " + std::to_string(bad_line) + ":"),
            std::string::npos)
      << loaded.status;
}

/// Loads `text` through the read end of a pipe, opened by its /dev/fd
/// name and fed by a writer thread, as for a `--csv <(...)` argument.
LoadResult LoadThroughPipe(const std::string& text,
                           const std::vector<CsvColumnSpec>& columns) {
  std::signal(SIGPIPE, SIG_IGN);  // a failed load closes the read end
  int fds[2];
  if (pipe(fds) != 0) return LoadResult{"pipe failed", {}, 0, 0, {}};
  std::thread writer([&text, fd = fds[1]]() {
    for (size_t written = 0; written < text.size();) {
      const ssize_t n = write(fd, text.data() + written, text.size() - written);
      if (n <= 0) break;
      written += static_cast<size_t>(n);
    }
    close(fd);
  });
  LoadResult got =
      LoadFromPath("/dev/fd/" + std::to_string(fds[0]), columns, {});
  close(fds[0]);
  writer.join();
  return got;
}

TEST(CsvLoaderTest, StreamedLoadReadsAPipe) {
  // The load reads a pipe front to back.
  const std::vector<CsvColumnSpec> columns = {ValueColumn(2), ValueColumn(0)};
  Random rng(77);
  const std::string text = RandomLongCsv(rng);
  const LoadResult got = LoadThroughPipe(text, columns);
  ExpectSameLoad(got, LoadInMemory(text, columns, {}));
  EXPECT_GT(text.size(), 2 * kCsvReadBlockBytes);
  EXPECT_GT(got.rows, 100);
}

CsvColumnSpec WideColumn(size_t column) {
  CsvColumnSpec spec;
  spec.column = column;
  spec.attribute = Attribute{"w" + std::to_string(column), uint64_t{1} << 40,
                             1.0};
  return spec;
}

/// Expects LoadCsv and LoadCsvFile to return for `text`, in both bad-row
/// modes and at every range count from 1 to 8 and the loader's own rule,
/// what one range returns.
void ExpectSameAtEveryRangeCount(const std::string& text,
                                 const std::vector<CsvColumnSpec>& columns,
                                 CsvOptions options) {
  const std::string path = WriteTempFile(text, "csv_loader_ranges.csv");
  for (const bool skip : {true, false}) {
    options.skip_bad_rows = skip;
    LoadResult one;
    {
      ScopedRanges scoped(1);
      one = LoadInMemory(text, columns, options);
    }
    for (size_t ranges = 0; ranges <= 8; ++ranges) {
      SCOPED_TRACE(std::string(skip ? "skip_bad_rows" : "strict") + ", " +
                   std::to_string(ranges) + " ranges");
      ScopedRanges scoped(ranges);
      ExpectSameLoad(LoadInMemory(text, columns, options), one);
      ExpectSameLoad(LoadFromPath(path, columns, options), one);
    }
  }
  std::remove(path.c_str());
}

/// The distinct levels of each column among `tuples`.
std::vector<int64_t> DistinctLevels(const std::vector<ValueIndex>& tuples,
                                    const std::vector<CsvColumnSpec>& columns) {
  std::vector<Attribute> attrs;
  for (const CsvColumnSpec& c : columns) attrs.push_back(c.attribute);
  const Domain domain = Domain::Create(attrs).value();
  std::vector<int64_t> distinct;
  for (size_t i = 0; i < columns.size(); ++i) {
    std::vector<uint64_t> levels;
    for (ValueIndex t : tuples) levels.push_back(domain.Coordinate(t, i));
    std::sort(levels.begin(), levels.end());
    distinct.push_back(std::unique(levels.begin(), levels.end()) -
                       levels.begin());
  }
  return distinct;
}

// A load cut into ranges returns what the reference loader returns, at
// every range count, from text and from a file: the tuples, the strict
// error's line, and the row, skipped-row and cardinality gauges. The
// first input is big enough for the loader's own rule to cut it on any
// machine with two hardware threads.
TEST(CsvLoaderTest, RangesMatchTheReferenceLoader) {
  const std::vector<std::vector<CsvColumnSpec>> specs = {
      {ValueColumn(2), ValueColumn(0)}, {WideColumn(1)}};
  Random rng(20261022);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string text =
        trial == 0 ? RandomLongCsv(rng, 9, 10) : RandomLongCsv(rng);
    for (const auto& columns : specs) {
      for (const bool has_header : {true, false}) {
        for (const bool skip : {true, false}) {
          SCOPED_TRACE(std::string(has_header ? "header" : "no header") +
                       (skip ? ", skip_bad_rows" : ", strict"));
          CsvOptions options;
          options.has_header = has_header;
          options.skip_bad_rows = skip;
          int64_t want_skipped = 0;
          auto want = ReferenceLoad(text, columns, options, &want_skipped);
          ScopedRanges scoped(1);
          const LoadResult one = LoadInMemory(text, columns, options);
          if (want.ok()) {
            ASSERT_EQ(one.tuples, *want);
            EXPECT_EQ(one.rows, static_cast<int64_t>(want->size()));
            EXPECT_EQ(one.skipped, want_skipped);
            EXPECT_EQ(one.cardinalities, DistinctLevels(*want, columns));
          } else {
            EXPECT_NE(one.status.find(" " + ErrorLine(want.status()) + ":"),
                      std::string::npos)
                << one.status << " vs " << want.status().ToString();
          }
        }
      }
      CsvOptions options;
      ExpectSameAtEveryRangeCount(text, columns, options);
      options.has_header = false;
      ExpectSameAtEveryRangeCount(text, columns, options);
    }
  }
}

/// `text` filled to `size` bytes with one-cell rows ("5\n").
std::string Filled(std::string text, size_t size) {
  FillTo(&text, size);
  return text;
}

// Where the cuts land: on a line start, inside a long line (so cuts meet
// and ranges are empty), in a last line with no newline after the cut,
// and on CRLF, blank and bad lines.
TEST(CsvLoaderTest, RangeCutsAtLineEdges) {
  const std::vector<CsvColumnSpec> column = {ValueColumn(0)};
  std::vector<std::pair<std::string, std::string>> cases;
  // Two halves of 5000 bytes: two ranges cut at byte 5000, just past the
  // first half's last '\n'.
  cases.emplace_back("cut on a line start",
                     Filled("v\n", 5000) + Filled("", 5000));
  // Cuts at a quarter, a half and three quarters all fall in one long
  // line, and move to its end.
  cases.emplace_back("cut inside a long line",
                     Filled("v\n", 9000) + "4" + std::string(21998, ' ') +
                         "\n" + Filled("", 9000));
  // The last line has no '\n', so a cut inside it moves to the end of
  // the input.
  cases.emplace_back("no newline after the cut",
                     Filled("v\n", 5000) + "7" + std::string(5000, ' '));
  {
    std::string text = "v\r\n";
    while (text.size() < 20000) text += "12\r\n3 \r\n\r\n\n";
    cases.emplace_back("CRLF and blank lines", text);
  }
  {
    std::string text = "v\n";
    while (text.size() < 20000) text += "1\nx\n\n2,3\n,\nnan\n";
    cases.emplace_back("bad rows in every range", text);
  }
  cases.emplace_back("one line", "v");
  cases.emplace_back("two lines, no final newline", "v\n5");
  cases.emplace_back("header and blank lines", "v\n\n\n\n\n\n\n\n\n");
  for (const auto& [name, text] : cases) {
    SCOPED_TRACE(name);
    for (const bool has_header : {true, false}) {
      CsvOptions options;
      options.has_header = has_header;
      ExpectSameAtEveryRangeCount(text, column, options);
    }
  }
}

// A strict load names the first bad row of the whole input, with its
// line number, whichever range holds it.
TEST(CsvLoaderTest, StrictErrorInALaterRange) {
  const std::vector<CsvColumnSpec> columns = {ValueColumn(0), ValueColumn(1)};
  const std::string head = Filled("a,b\n", 30000);
  const size_t head_lines =
      static_cast<size_t>(std::count(head.begin(), head.end(), '\n'));
  // Every row so far has one cell: fill the rest with two-cell rows.
  std::string rows;
  for (size_t i = 0; i < head_lines; ++i) rows += "1,2\n";
  const std::string text = "a,b\n" + rows + rows + "3,x\n" + rows + "4\n" +
                           rows;
  const size_t bad_line = 1 + 2 * head_lines + 1;
  const size_t short_line = bad_line + head_lines + 1;
  const std::string path = WriteTempFile(text, "csv_loader_strict.csv");
  CsvOptions strict;
  strict.skip_bad_rows = false;
  for (size_t ranges = 1; ranges <= 8; ++ranges) {
    SCOPED_TRACE(std::to_string(ranges) + " ranges");
    ScopedRanges scoped(ranges);
    for (const LoadResult& got : {LoadInMemory(text, columns, strict),
                                  LoadFromPath(path, columns, strict)}) {
      EXPECT_EQ(got.status, "INVALID_ARGUMENT: line " +
                                std::to_string(bad_line) + ": bad cell 'x'");
    }
    // Without the bad cell, the short row further on is the first error.
    std::string fixed = text;
    fixed.replace(fixed.find("3,x"), 3, "3,5");
    EXPECT_EQ(LoadInMemory(fixed, columns, strict).status,
              "INVALID_ARGUMENT: line " + std::to_string(short_line) +
                  ": too few columns");
    // Skipping, both rows count as skipped and the rest load.
    const LoadResult skipped = LoadInMemory(text, columns, {});
    EXPECT_EQ(skipped.skipped, 2);
    EXPECT_EQ(skipped.rows, static_cast<int64_t>(4 * head_lines));
  }
  std::remove(path.c_str());
}

// A pipe is one range whatever the range count: it cannot be cut.
TEST(CsvLoaderTest, PipeLoadsAtAnyRangeCount) {
  const std::vector<CsvColumnSpec> columns = {ValueColumn(2), ValueColumn(0)};
  Random rng(78);
  const std::string text = RandomLongCsv(rng);
  const LoadResult want = LoadInMemory(text, columns, {});
  ScopedRanges scoped(8);
  ExpectSameLoad(LoadThroughPipe(text, columns), want);
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

  EXPECT_EQ(registry.GetGauge("data_rows_skipped")->Value(), 0);

  // The second load's skipped bad row counts neither as a row nor
  // toward the cardinalities, but as a skipped row.
  auto second =
      LoadCsv("age,hours\n5,0\n5,7\nbad,1\n", {age, hours}, options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(registry.GetDoubleCounter("data_load_seconds")->Value(),
            first_seconds);
  EXPECT_EQ(registry.GetGauge("data_rows")->Value(), 6);
  EXPECT_EQ(registry.GetGauge("data_rows_skipped")->Value(), 1);
  EXPECT_EQ(registry.GetGauge("data_column_cardinality{attr=age}")->Value(),
            1);
  EXPECT_EQ(
      registry.GetGauge("data_column_cardinality{attr=hours}")->Value(), 2);

  // Skipped rows accumulate across loads, whatever made them bad: too
  // few columns, or a bad cell. Blank lines and the header are no rows.
  auto third = LoadCsv("age,hours\n1\n\n2,nan\n3,4\n", {age, hours},
                       options);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(registry.GetGauge("data_rows")->Value(), 7);
  EXPECT_EQ(registry.GetGauge("data_rows_skipped")->Value(), 3);
}

}  // namespace
}  // namespace blowfish
