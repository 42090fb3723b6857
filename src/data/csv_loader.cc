#include "data/csv_loader.h"

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string_view>
#include <unordered_set>

#include "util/text_file.h"

namespace blowfish {

namespace {

/// std::isspace in the "C" locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Parses `cell` by the grammar in csv_loader.h. Returns false for a bad
/// cell.
bool ParseCell(std::string_view cell, double* value) {
  const char* begin = cell.data();
  const char* const end = begin + cell.size();
  while (begin != end && IsSpace(*begin)) ++begin;
  if (begin != end && *begin == '+') {
    ++begin;
    // from_chars would take the '-' of "+-4" as the sign.
    if (begin != end && *begin == '-') return false;
  }
  const auto [stop, error] = std::from_chars(begin, end, *value);
  if (error != std::errc()) return false;  // malformed, or overflow
  for (const char* p = stop; p != end; ++p) {
    if (!IsSpace(*p)) return false;
  }
  if (!std::isfinite(*value)) return false;
  // Underflow: a nonzero magnitude below the smallest normal double.
  return *value == 0.0 || std::fabs(*value) >= DBL_MIN;
}

/// The distinct levels seen in one column: a bitmap over the
/// attribute's levels, or a hash set for attributes too wide to index.
class LevelSet {
 public:
  explicit LevelSet(uint64_t cardinality) {
    if (cardinality <= Dataset::kMaxMaterializedDomain) {
      seen_.resize(cardinality);
    }
  }

  void Insert(uint64_t level) {
    if (seen_.empty()) {
      wide_.insert(level);
    } else if (!seen_[level]) {
      seen_[level] = true;
      ++count_;
    }
  }

  uint64_t size() const { return seen_.empty() ? wide_.size() : count_; }

 private:
  std::vector<bool> seen_;
  uint64_t count_ = 0;
  std::unordered_set<uint64_t> wide_;
};

}  // namespace

StatusOr<Dataset> LoadCsv(const std::string& text,
                          const std::vector<CsvColumnSpec>& columns,
                          const CsvOptions& options) {
  if (columns.empty()) {
    return Status::InvalidArgument("no columns selected");
  }
  const auto load_start = std::chrono::steady_clock::now();
  std::vector<Attribute> attrs;
  attrs.reserve(columns.size());
  size_t max_column = 0;
  for (const CsvColumnSpec& c : columns) {
    // With a finite cell, offset and bin_width, no level is NaN, which
    // has no integer to be cast to.
    if (!(c.bin_width > 0.0) || !std::isfinite(c.bin_width)) {
      return Status::InvalidArgument(
          "bin_width must be positive and finite");
    }
    if (!std::isfinite(c.offset)) {
      return Status::InvalidArgument("offset must be finite");
    }
    attrs.push_back(c.attribute);
    max_column = std::max(max_column, c.column);
  }
  BLOWFISH_ASSIGN_OR_RETURN(Domain domain_v, Domain::Create(attrs));
  auto domain = std::make_shared<const Domain>(std::move(domain_v));

  std::vector<ValueIndex> tuples;
  std::vector<LevelSet> levels;
  levels.reserve(columns.size());
  for (const CsvColumnSpec& c : columns) {
    levels.emplace_back(c.attribute.cardinality);
  }
  // Reused across rows: cells 0..max_column of the row, as views into
  // `text`, and the selected cells' levels. No line has more than
  // text.size() + 1 cells, which bounds the buffer whatever column the
  // caller names.
  std::vector<std::string_view> cells(std::min(max_column, text.size()) +
                                      1);
  std::vector<uint64_t> coords(columns.size());
  uint64_t skipped = 0;
  size_t line_no = 0;
  const char* next = text.data();
  const char* const text_end = next + text.size();
  while (next != text_end) {
    const char* line = next;
    const char* eol = static_cast<const char*>(
        std::memchr(line, '\n', static_cast<size_t>(text_end - line)));
    if (eol == nullptr) eol = text_end;
    next = eol == text_end ? text_end : eol + 1;
    ++line_no;
    if (line_no == 1 && options.has_header) continue;
    if (line == eol) continue;
    // Cell i runs from just past separator i to the next separator or
    // the line's end; cells past max_column are never looked at.
    size_t found = 0;
    for (const char* cell = line; found <= max_column;) {
      const char* sep = static_cast<const char*>(std::memchr(
          cell, options.separator, static_cast<size_t>(eol - cell)));
      const char* cell_end = sep == nullptr ? eol : sep;
      cells[found++] =
          std::string_view(cell, static_cast<size_t>(cell_end - cell));
      if (sep == nullptr) break;
      cell = sep + 1;
    }
    if (found <= max_column) {
      if (options.skip_bad_rows) {
        ++skipped;
        continue;
      }
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": too few columns");
    }
    bool bad = false;
    for (size_t i = 0; i < columns.size(); ++i) {
      const CsvColumnSpec& spec = columns[i];
      double value = 0.0;
      if (!ParseCell(cells[spec.column], &value)) {
        if (options.skip_bad_rows) {
          bad = true;
          break;
        }
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": bad cell '" +
            std::string(cells[spec.column]) + "'");
      }
      double level = std::floor((value - spec.offset) / spec.bin_width);
      if (level < 0) level = 0;
      double max_level =
          static_cast<double>(spec.attribute.cardinality - 1);
      if (level > max_level) level = max_level;
      coords[i] = static_cast<uint64_t>(level);
    }
    if (bad) {
      ++skipped;
      continue;
    }
    for (size_t i = 0; i < columns.size(); ++i) levels[i].Insert(coords[i]);
    tuples.push_back(domain->Encode(coords));
  }
  const size_t rows = tuples.size();
  BLOWFISH_ASSIGN_OR_RETURN(Dataset data,
                            Dataset::Create(domain, std::move(tuples)));
  obs::MetricsRegistry* registry = options.metrics != nullptr
                                       ? options.metrics
                                       : obs::MetricsRegistry::Global();
  registry->GetDoubleCounter("data_load_seconds")
      ->Add(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          load_start)
                .count());
  registry->GetGauge("data_rows")->Add(static_cast<int64_t>(rows));
  registry->GetGauge("data_rows_skipped")
      ->Add(static_cast<int64_t>(skipped));
  for (size_t i = 0; i < columns.size(); ++i) {
    obs::Gauge* gauge = registry->GetGauge(
        "data_column_cardinality{attr=" + columns[i].attribute.name + "}");
    // Set-to-latest: loads are sequential, so the delta write does not
    // race another loader.
    gauge->Add(static_cast<int64_t>(levels[i].size()) - gauge->Value());
  }
  return data;
}

StatusOr<Dataset> LoadCsvFile(const std::string& path,
                              const std::vector<CsvColumnSpec>& columns,
                              const CsvOptions& options) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
  return LoadCsv(text, columns, options);
}

}  // namespace blowfish
