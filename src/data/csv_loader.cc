#include "data/csv_loader.h"

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string_view>
#include <unordered_set>

#include "util/parse.h"

namespace blowfish {

namespace {

/// Parses `cell` by the grammar in csv_loader.h: util/parse's decimal
/// grammar, less the subnormals. Returns false for a bad cell.
bool ParseCell(std::string_view cell, double* value) {
  // Underflow: a nonzero magnitude below the smallest normal double.
  return ParseDecimal(cell, value) &&
         (*value == 0.0 || std::fabs(*value) >= DBL_MIN);
}

/// The most digits an integer cell may have and still be read in place:
/// 10^15 - 1 < 2^53, so every such integer is an exact double.
constexpr size_t kMaxInPlaceDigits = 15;

/// Reads `cell` in place when it is 1 to kMaxInPlaceDigits ASCII digits,
/// optionally followed by one '\r', which the grammar reads as trailing
/// space (a CRLF row's last cell). Such a cell's value is the integer its
/// digits spell, which ParseCell reads too, exactly; any other cell
/// returns false for ParseCell to read.
bool ReadInteger(std::string_view cell, uint64_t* value) {
  size_t digits = cell.size();
  if (digits != 0 && cell[digits - 1] == '\r') --digits;
  if (digits == 0 || digits > kMaxInPlaceDigits) return false;
  uint64_t v = 0;
  for (size_t i = 0; i < digits; ++i) {
    const unsigned digit = static_cast<unsigned char>(cell[i]) - '0';
    if (digit > 9) return false;
    v = v * 10 + digit;
  }
  *value = v;
  return true;
}

/// The '\n' that ends the line holding `p`, or `end` for the last line.
const char* LineEnd(const char* p, const char* end) {
  const void* eol = std::memchr(p, '\n', static_cast<size_t>(end - p));
  return eol == nullptr ? end : static_cast<const char*>(eol);
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

/// The one-pass parser behind both entry points: LoadCsv feeds it the
/// whole text at once, LoadCsvFile a block of whole lines at a time.
class CsvParser {
 public:
  /// Validates the column specs; the load's clock starts here.
  static StatusOr<CsvParser> Create(const std::vector<CsvColumnSpec>& columns,
                                    const CsvOptions& options) {
    if (columns.empty()) {
      return Status::InvalidArgument("no columns selected");
    }
    const auto start = std::chrono::steady_clock::now();
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
    BLOWFISH_ASSIGN_OR_RETURN(Domain domain, Domain::Create(attrs));
    return CsvParser(columns, options, start, max_column,
                     std::make_shared<const Domain>(std::move(domain)));
  }

  /// Parses the lines of [next, end). Each ends at '\n', except that
  /// the input's last line needs none, so `end` is either just past a
  /// '\n' or the end of the input.
  Status Lines(const char* next, const char* const end) {
    const char separator = options_.separator;
    while (next != end) {
      const char* const line = next;
      ++line_no_;
      if ((line_no_ == 1 && options_.has_header) || *line == '\n') {
        const char* eol = LineEnd(line, end);
        next = eol == end ? end : eol + 1;
        continue;
      }
      // Cell i runs from just past separator i to the next separator or
      // the line's end. One scan splits the row and finds its end; cells
      // past max_column are never looked at, so a row holds at most
      // max_column + 1 views, and no more than the line has cells.
      cells_.clear();
      const char* p = line;
      while (true) {
        const char* const cell = p;
        while (p != end && *p != '\n' && *p != separator) ++p;
        cells_.emplace_back(cell, static_cast<size_t>(p - cell));
        if (p == end || *p == '\n') break;
        if (cells_.size() > max_column_) {
          p = LineEnd(p, end);
          break;
        }
        ++p;
      }
      next = p == end ? end : p + 1;
      if (cells_.size() <= max_column_) {
        if (options_.skip_bad_rows) {
          ++skipped_;
          continue;
        }
        return Status::InvalidArgument("line " + std::to_string(line_no_) +
                                       ": too few columns");
      }
      bool bad = false;
      for (size_t i = 0; i < columns_.size(); ++i) {
        const CsvColumnSpec& spec = columns_[i];
        const std::string_view cell = cells_[spec.column];
        uint64_t integer = 0;
        double value = 0.0;
        if (ReadInteger(cell, &integer)) {
          // floor((v - 0) / 1) is v itself: no floating point.
          if (spec.bin_width == 1.0 && spec.offset == 0.0) {
            coords_[i] =
                std::min<uint64_t>(integer, spec.attribute.cardinality - 1);
            continue;
          }
          value = static_cast<double>(integer);
        } else if (!ParseCell(cell, &value)) {
          if (options_.skip_bad_rows) {
            bad = true;
            break;
          }
          return Status::InvalidArgument(
              "line " + std::to_string(line_no_) + ": bad cell '" +
              std::string(cell) + "'");
        }
        double level = std::floor((value - spec.offset) / spec.bin_width);
        if (level < 0) level = 0;
        double max_level =
            static_cast<double>(spec.attribute.cardinality - 1);
        if (level > max_level) level = max_level;
        coords_[i] = static_cast<uint64_t>(level);
      }
      if (bad) {
        ++skipped_;
        continue;
      }
      for (size_t i = 0; i < columns_.size(); ++i) {
        levels_[i].Insert(coords_[i]);
      }
      tuples_.push_back(domain_->Encode(coords_));
    }
    return Status::OK();
  }

  /// The loaded dataset; records the load metrics (csv_loader.h).
  StatusOr<Dataset> Finish() && {
    const size_t rows = tuples_.size();
    BLOWFISH_ASSIGN_OR_RETURN(Dataset data,
                              Dataset::Create(domain_, std::move(tuples_)));
    obs::MetricsRegistry* registry = options_.metrics != nullptr
                                         ? options_.metrics
                                         : obs::MetricsRegistry::Global();
    registry->GetDoubleCounter("data_load_seconds")
        ->Add(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start_)
                  .count());
    registry->GetGauge("data_rows")->Add(static_cast<int64_t>(rows));
    registry->GetGauge("data_rows_skipped")
        ->Add(static_cast<int64_t>(skipped_));
    for (size_t i = 0; i < columns_.size(); ++i) {
      obs::Gauge* gauge =
          registry->GetGauge("data_column_cardinality{attr=" +
                             columns_[i].attribute.name + "}");
      // Set-to-latest: loads are sequential, so the delta write does not
      // race another loader.
      gauge->Add(static_cast<int64_t>(levels_[i].size()) - gauge->Value());
    }
    return data;
  }

 private:
  CsvParser(const std::vector<CsvColumnSpec>& columns,
            const CsvOptions& options,
            std::chrono::steady_clock::time_point start, size_t max_column,
            std::shared_ptr<const Domain> domain)
      : columns_(columns), options_(options), start_(start),
        max_column_(max_column), domain_(std::move(domain)),
        coords_(columns.size()) {
    levels_.reserve(columns.size());
    for (const CsvColumnSpec& c : columns) {
      levels_.emplace_back(c.attribute.cardinality);
    }
  }

  const std::vector<CsvColumnSpec>& columns_;
  CsvOptions options_;
  std::chrono::steady_clock::time_point start_;
  size_t max_column_;
  std::shared_ptr<const Domain> domain_;
  /// Reused across rows: the row's cells as views into the input, and
  /// the selected cells' levels.
  std::vector<std::string_view> cells_;
  std::vector<uint64_t> coords_;
  std::vector<ValueIndex> tuples_;
  std::vector<LevelSet> levels_;
  uint64_t skipped_ = 0;
  size_t line_no_ = 0;
};

}  // namespace

StatusOr<Dataset> LoadCsv(const std::string& text,
                          const std::vector<CsvColumnSpec>& columns,
                          const CsvOptions& options) {
  BLOWFISH_ASSIGN_OR_RETURN(CsvParser parser,
                            CsvParser::Create(columns, options));
  BLOWFISH_RETURN_IF_ERROR(
      parser.Lines(text.data(), text.data() + text.size()));
  return std::move(parser).Finish();
}

StatusOr<Dataset> LoadCsvFile(const std::string& path,
                              const std::vector<CsvColumnSpec>& columns,
                              const CsvOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  BLOWFISH_ASSIGN_OR_RETURN(CsvParser parser,
                            CsvParser::Create(columns, options));
  // buffer[0, carry) is a line begun in an earlier block; each read
  // appends one block after it, and the parser takes every line that
  // block completes. The buffer holds one block plus the longest line.
  std::string buffer;
  size_t carry = 0;
  while (true) {
    buffer.resize(carry + kCsvReadBlockBytes);
    file.read(buffer.data() + carry,
              static_cast<std::streamsize>(kCsvReadBlockBytes));
    if (file.bad()) {
      return Status::Internal("read from '" + path + "' failed");
    }
    const size_t got = static_cast<size_t>(file.gcount());
    const char* const begin = buffer.data();
    const char* const end = begin + carry + got;
    if (got == 0) {  // end of file: the carried line is the last
      BLOWFISH_RETURN_IF_ERROR(parser.Lines(begin, end));
      break;
    }
    const char* last_eol =
        static_cast<const char*>(memrchr(begin + carry, '\n', got));
    if (last_eol == nullptr) {
      carry += got;
      continue;
    }
    BLOWFISH_RETURN_IF_ERROR(parser.Lines(begin, last_eol + 1));
    carry = static_cast<size_t>(end - (last_eol + 1));
    std::memmove(buffer.data(), last_eol + 1, carry);
  }
  return std::move(parser).Finish();
}

}  // namespace blowfish
