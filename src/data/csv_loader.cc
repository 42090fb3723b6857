#include "data/csv_loader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <exception>
#include <new>
#include <string_view>
#include <thread>
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

/// The '\n's in [p, end). The count is kept in 32 bits per chunk of at
/// most 2^20 bytes, so it cannot wrap, and 32-bit lanes let the compiler
/// vectorize more bytes per step than std::count's 64-bit count.
size_t CountNewlines(const char* p, const char* const end) {
  size_t total = 0;
  while (p != end) {
    const size_t chunk =
        std::min(static_cast<size_t>(end - p), size_t{1} << 20);
    uint32_t n = 0;
    for (size_t i = 0; i < chunk; ++i) n += p[i] == '\n';
    total += n;
    p += chunk;
  }
  return total;
}

/// The lines of [begin, end), a run of whole lines: its '\n's, plus a
/// last line that has none.
size_t CountLines(const char* begin, const char* end) {
  return CountNewlines(begin, end) +
         (begin != end && end[-1] != '\n' ? 1 : 0);
}

constexpr size_t kCacheLine = 64;

/// Allocates whole, aligned cache lines, so that a buffer one range
/// writes never shares a line with another range's.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(size_t n) {
    const size_t bytes =
        (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
    return static_cast<T*>(
        ::operator new(bytes, std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
  friend bool operator!=(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return false;
  }
};

template <typename T>
using LineVector = std::vector<T, CacheLineAllocator<T>>;

/// The smallest input cut into more than one range, and the most ranges
/// (so threads) one load uses.
constexpr size_t kMinRangeBytes = size_t{1} << 18;
constexpr size_t kMaxRanges = 8;

std::atomic<size_t> ranges_for_testing{0};

/// How many ranges an input of `bytes` is cut into (csv_loader.h).
size_t RangeCount(size_t bytes) {
  const size_t forced = ranges_for_testing.load(std::memory_order_relaxed);
  if (forced != 0) {
    // One range per byte at most, so that every cut is past byte 0 and
    // the first range holds line 1.
    return std::min({forced, kMaxRanges, std::max<size_t>(bytes, 1)});
  }
  const size_t threads =
      std::max<size_t>(std::thread::hardware_concurrency(), 1);
  return std::max<size_t>(
      std::min({threads, bytes / kMinRangeBytes, kMaxRanges}), 1);
}

/// Runs fn(r) for every range r < `ranges`: range 0 on the caller, each
/// other range on a thread of its own, or on the caller too when no
/// thread can be started. Every thread is joined before this returns,
/// and an exception fn threw on any of them is rethrown here.
template <typename Fn>
void ForEachRange(size_t ranges, const Fn& fn) {
  std::vector<std::exception_ptr> errors(ranges);
  const auto run = [&fn, &errors](size_t r) {
    try {
      fn(r);
    } catch (...) {
      errors[r] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(ranges - 1);
  for (size_t r = 1; r < ranges; ++r) {
    try {
      threads.emplace_back(run, r);
    } catch (...) {
      run(r);
    }
  }
  run(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// The cuts of an input of `size` bytes into `ranges` line-aligned
/// ranges: range r is [cuts[r], cuts[r + 1]). `line_start(at)` returns
/// the first line start at or after byte `at` (1 <= at <= size): just
/// past the first '\n' at or after byte at - 1, or `size` when there is
/// none. So every range but the last ends just past a '\n', and a cut
/// inside a long line moves to the line's end, leaving an empty range
/// where two cuts meet.
template <typename LineStart>
StatusOr<std::vector<size_t>> CutRanges(size_t size, size_t ranges,
                                        const LineStart& line_start) {
  std::vector<size_t> cuts(ranges + 1, size);
  cuts[0] = 0;
  for (size_t r = 1; r < ranges; ++r) {
    const size_t at = std::max(size / ranges * r, cuts[r - 1]);
    BLOWFISH_ASSIGN_OR_RETURN(cuts[r], line_start(at));
  }
  return cuts;
}

class RangeParser;

/// What every range of one load shares: the validated column specs, the
/// domain and its strides, and each column's levels seen so far. The
/// load's clock starts at Create.
class CsvLoad {
 public:
  static StatusOr<CsvLoad> Create(const std::vector<CsvColumnSpec>& columns,
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
    return CsvLoad(columns, options, start, max_column,
                   std::make_shared<const Domain>(std::move(domain)));
  }

  const std::vector<CsvColumnSpec>& columns() const { return columns_; }
  const CsvOptions& options() const { return options_; }
  size_t max_column() const { return max_column_; }
  uint64_t stride(size_t i) const { return domain_->stride(i); }

  /// Column i's seen-level bitmap: one bit per level, in words every
  /// range shares. nullptr for an attribute too wide to index, whose
  /// levels each range keeps in a hash set instead.
  std::atomic<uint64_t>* seen(size_t i) const {
    return seen_[i].empty() ? nullptr : seen_[i].data();
  }

  /// The loaded dataset of `tuples`, which `ranges` parsed; records the
  /// load metrics (csv_loader.h).
  StatusOr<Dataset> Finish(std::vector<ValueIndex> tuples,
                           std::deque<RangeParser>& ranges) const;

 private:
  CsvLoad(const std::vector<CsvColumnSpec>& columns, const CsvOptions& options,
          std::chrono::steady_clock::time_point start, size_t max_column,
          std::shared_ptr<const Domain> domain)
      : columns_(columns), options_(options), start_(start),
        max_column_(max_column), domain_(std::move(domain)) {
    for (const CsvColumnSpec& c : columns) {
      const uint64_t cardinality = c.attribute.cardinality;
      seen_.emplace_back(cardinality <= Dataset::kMaxMaterializedDomain
                             ? (cardinality + 63) / 64
                             : 0);
    }
  }

  const std::vector<CsvColumnSpec>& columns_;
  CsvOptions options_;
  std::chrono::steady_clock::time_point start_;
  size_t max_column_;
  std::shared_ptr<const Domain> domain_;
  /// Mutable: ranges set bits through a const load.
  mutable std::vector<LineVector<std::atomic<uint64_t>>> seen_;
};

/// Parses one range of a load: a run of whole lines. Its rows go into a
/// run of slots the caller sized by the range's line count, or, for a
/// load of one range, onto the end of a growing vector. Aligned, and with
/// every buffer on cache lines of its own, so that ranges parsing on
/// different threads never write to a line another range uses. A thread
/// holds its range by address, so a range is never copied or moved.
class alignas(kCacheLine) RangeParser {
 public:
  /// `first` marks the load's first range, which holds the header;
  /// `block_bytes` sizes its read buffer. Allocating here, on the thread
  /// that starts the load, keeps the buffers in that thread's heap.
  RangeParser(const CsvLoad& load, bool first, size_t block_bytes)
      : block(block_bytes),
        skip_bad_rows_(load.options().skip_bad_rows),
        separator_(load.options().separator),
        max_column_(load.max_column()),
        header_line_(first && load.options().has_header ? 1 : 0),
        coords_(load.columns().size()),
        marked_(load.columns().size()),
        wide_(load.columns().size()) {
    cells_.reserve(std::min<size_t>(load.max_column(), 15) + 1);
    for (size_t i = 0; i < load.columns().size(); ++i) {
      const CsvColumnSpec& spec = load.columns()[i];
      columns_.push_back({spec.column, spec.attribute.cardinality - 1,
                          spec.bin_width, spec.offset, load.stride(i),
                          load.seen(i)});
    }
  }
  RangeParser(const RangeParser&) = delete;
  RangeParser& operator=(const RangeParser&) = delete;

  /// Rows go to out[0, capacity); the range's first line is line
  /// `lines_before + 1` of the input.
  void WriteTo(ValueIndex* out, size_t capacity, size_t lines_before) {
    out_ = out;
    capacity_ = capacity;
    line_no_ = first_line_ = lines_before;
  }

  /// Rows are appended to `tuples`.
  void AppendTo(std::vector<ValueIndex>* tuples) { grow_ = tuples; }

  /// Parses the lines of [next, end). Each ends at '\n', except that
  /// the input's last line needs none, so `end` is either just past a
  /// '\n' or the end of the input.
  Status Lines(const char* next, const char* const end) {
    while (next != end) {
      const char* const line = next;
      ++line_no_;
      if (line_no_ == header_line_ || *line == '\n') {
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
        while (p != end && *p != '\n' && *p != separator_) ++p;
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
        if (skip_bad_rows_) {
          ++skipped_;
          continue;
        }
        return Status::InvalidArgument("line " + std::to_string(line_no_) +
                                       ": too few columns");
      }
      bool bad = false;
      ValueIndex tuple = 0;
      for (size_t i = 0; i < columns_.size(); ++i) {
        const Column& spec = columns_[i];
        const std::string_view cell = cells_[spec.column];
        uint64_t integer = 0;
        double value = 0.0;
        if (ReadInteger(cell, &integer)) {
          // floor((v - 0) / 1) is v itself: no floating point.
          if (spec.bin_width == 1.0 && spec.offset == 0.0) {
            coords_[i] = std::min(integer, spec.max_level);
            tuple += coords_[i] * spec.stride;
            continue;
          }
          value = static_cast<double>(integer);
        } else if (!ParseCell(cell, &value)) {
          if (skip_bad_rows_) {
            bad = true;
            break;
          }
          return Status::InvalidArgument(
              "line " + std::to_string(line_no_) + ": bad cell '" +
              std::string(cell) + "'");
        }
        double level = std::floor((value - spec.offset) / spec.bin_width);
        if (level < 0) level = 0;
        double max_level = static_cast<double>(spec.max_level);
        if (level > max_level) level = max_level;
        coords_[i] = static_cast<uint64_t>(level);
        tuple += coords_[i] * spec.stride;
      }
      if (bad) {
        ++skipped_;
        continue;
      }
      for (size_t i = 0; i < columns_.size(); ++i) Mark(i, coords_[i]);
      if (grow_ != nullptr) {
        grow_->push_back(tuple);
      } else if (rows_ < capacity_) {
        out_[rows_] = tuple;
      } else {
        // More rows than the range had lines when they were counted.
        return Status::Internal("the input changed while it was loaded");
      }
      ++rows_;
    }
    return Status::OK();
  }

  size_t lines() const { return line_no_ - first_line_; }
  size_t rows() const { return rows_; }
  uint64_t skipped() const { return skipped_; }
  /// Column i's levels whose seen bit this range set.
  uint64_t marked(size_t i) const { return marked_[i]; }
  /// Column i's levels this range saw, for a column too wide to index.
  std::unordered_set<uint64_t>& wide(size_t i) { return wide_[i]; }

  /// The range's bytes and, after the count, its line count.
  size_t begin = 0;
  size_t end = 0;
  size_t counted_lines = 0;
  /// What counting or parsing the range returned.
  Status status;
  /// The range's read buffer, for a range read from a file.
  LineVector<char> block;

 private:
  /// Adds `level` to column i's seen levels. A bit is written only while
  /// it is clear, so a level seen before costs one shared read.
  void Mark(size_t i, uint64_t level) {
    std::atomic<uint64_t>* const seen = columns_[i].seen;
    if (seen == nullptr) {
      wide_[i].insert(level);
      return;
    }
    std::atomic<uint64_t>& word = seen[level / 64];
    const uint64_t bit = uint64_t{1} << (level % 64);
    if ((word.load(std::memory_order_relaxed) & bit) == 0 &&
        (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0) {
      ++marked_[i];
    }
  }

  /// A selected column, copied from the load onto the range's own lines:
  /// the fields a row's parse reads.
  struct Column {
    size_t column;
    uint64_t max_level;
    double bin_width;
    double offset;
    uint64_t stride;
    std::atomic<uint64_t>* seen;
  };

  bool skip_bad_rows_;
  char separator_;
  size_t max_column_;
  LineVector<Column> columns_;
  /// The header's line number, or 0 when the range holds no header.
  size_t header_line_;
  size_t first_line_ = 0;
  size_t line_no_ = 0;
  ValueIndex* out_ = nullptr;
  size_t capacity_ = 0;
  std::vector<ValueIndex>* grow_ = nullptr;
  size_t rows_ = 0;
  uint64_t skipped_ = 0;
  /// Reused across rows: the row's cells as views into the input, and
  /// the selected cells' levels.
  LineVector<std::string_view> cells_;
  LineVector<uint64_t> coords_;
  LineVector<uint64_t> marked_;
  std::vector<std::unordered_set<uint64_t>> wide_;
};

StatusOr<Dataset> CsvLoad::Finish(std::vector<ValueIndex> tuples,
                                  std::deque<RangeParser>& ranges) const {
  const size_t rows = tuples.size();
  BLOWFISH_ASSIGN_OR_RETURN(Dataset data,
                            Dataset::Create(domain_, std::move(tuples)));
  obs::MetricsRegistry* registry = options_.metrics != nullptr
                                       ? options_.metrics
                                       : obs::MetricsRegistry::Global();
  registry->GetDoubleCounter("data_load_seconds")
      ->Add(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count());
  uint64_t skipped = 0;
  for (const RangeParser& range : ranges) skipped += range.skipped();
  registry->GetGauge("data_rows")->Add(static_cast<int64_t>(rows));
  registry->GetGauge("data_rows_skipped")
      ->Add(static_cast<int64_t>(skipped));
  for (size_t i = 0; i < columns_.size(); ++i) {
    // Each seen level's bit was set by exactly one range.
    uint64_t distinct = 0;
    if (seen(i) != nullptr) {
      for (const RangeParser& range : ranges) distinct += range.marked(i);
    } else {
      std::unordered_set<uint64_t>& levels = ranges[0].wide(i);
      for (size_t r = 1; r < ranges.size(); ++r) {
        levels.insert(ranges[r].wide(i).begin(), ranges[r].wide(i).end());
      }
      distinct = levels.size();
    }
    obs::Gauge* gauge = registry->GetGauge(
        "data_column_cardinality{attr=" + columns_[i].attribute.name + "}");
    // Set-to-latest: loads are sequential, so the delta write does not
    // race another loader.
    gauge->Add(static_cast<int64_t>(distinct) - gauge->Value());
  }
  return data;
}

/// A load of one range: `lines(parser)` feeds it every line, and its
/// rows are appended to one growing vector.
template <typename Lines>
StatusOr<Dataset> LoadOneRange(const CsvLoad& load, size_t block_bytes,
                               const Lines& lines) {
  std::deque<RangeParser> ranges;
  ranges.emplace_back(load, true, block_bytes);
  std::vector<ValueIndex> tuples;
  ranges[0].AppendTo(&tuples);
  BLOWFISH_RETURN_IF_ERROR(lines(ranges[0]));
  return load.Finish(std::move(tuples), ranges);
}

/// A load of the line-aligned ranges [cuts[r], cuts[r + 1]), each on a
/// thread of its own, with a read buffer of `block_bytes`. Pass 1 runs
/// count(range), which sets range.counted_lines; the tuples are then
/// allocated once, one slot per line but the header. Pass 2 runs
/// parse(range), which feeds the range's lines to it, into its own run
/// of slots. The merge keeps range order: the error of the first range
/// that failed is the load's, and each range's rows move down over the
/// slots that blank and bad lines left empty.
template <typename Count, typename Parse>
StatusOr<Dataset> LoadRanges(const CsvLoad& load,
                             const std::vector<size_t>& cuts,
                             size_t block_bytes, const Count& count,
                             const Parse& parse) {
  const size_t num_ranges = cuts.size() - 1;
  std::deque<RangeParser> ranges;
  for (size_t r = 0; r < num_ranges; ++r) {
    ranges.emplace_back(load, r == 0, block_bytes);
    ranges[r].begin = cuts[r];
    ranges[r].end = cuts[r + 1];
  }
  ForEachRange(num_ranges,
               [&](size_t r) { ranges[r].status = count(ranges[r]); });
  std::vector<size_t> first_slot(num_ranges + 1, 0);
  size_t lines_before = 0;
  for (size_t r = 0; r < num_ranges; ++r) {
    BLOWFISH_RETURN_IF_ERROR(ranges[r].status);
    const size_t lines = ranges[r].counted_lines;
    // The header, line 1, is in the first range and has no slot.
    const size_t header = r == 0 && lines > 0 && load.options().has_header;
    first_slot[r + 1] = first_slot[r] + lines - header;
  }
  std::vector<ValueIndex> tuples(first_slot[num_ranges]);
  for (size_t r = 0; r < num_ranges; ++r) {
    ranges[r].WriteTo(tuples.data() + first_slot[r],
                      first_slot[r + 1] - first_slot[r], lines_before);
    lines_before += ranges[r].counted_lines;
  }
  ForEachRange(num_ranges, [&](size_t r) {
    RangeParser& range = ranges[r];
    range.status = parse(range);
    if (range.status.ok() && range.lines() != range.counted_lines) {
      range.status =
          Status::Internal("the input changed while it was loaded");
    }
  });
  size_t rows = 0;
  for (size_t r = 0; r < num_ranges; ++r) {
    BLOWFISH_RETURN_IF_ERROR(ranges[r].status);
    if (first_slot[r] != rows) {
      std::memmove(tuples.data() + rows, tuples.data() + first_slot[r],
                   ranges[r].rows() * sizeof(ValueIndex));
    }
    rows += ranges[r].rows();
  }
  tuples.resize(rows);
  return load.Finish(std::move(tuples), ranges);
}

/// An open file, closed when this goes out of scope.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() {
    if (fd_ >= 0) close(fd_);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// The `end` of a read that runs to the end of the file.
constexpr size_t kToEndOfFile = SIZE_MAX;

/// One read of up to `size` bytes into `out`: at `offset` with pread,
/// or from the file's own offset with read when `offset` is
/// kToEndOfFile (a pipe). Retries a read that a signal interrupted.
ssize_t ReadSome(int fd, char* out, size_t size, size_t offset) {
  while (true) {
    const ssize_t got =
        offset == kToEndOfFile
            ? read(fd, out, size)
            : pread(fd, out, size, static_cast<off_t>(offset));
    if (got >= 0 || errno != EINTR) return got;
  }
}

/// The status of a read that returned `got` <= 0 before its end: an
/// error, or a file shorter than its size at open.
Status ReadFailed(const std::string& path, ssize_t got) {
  if (got == 0) {
    return Status::Internal("'" + path + "' changed while it was loaded");
  }
  return Status::Internal("read from '" + path + "' failed");
}

/// Feeds the lines of bytes [begin, end) of `fd` to `parser`,
/// kCsvReadBlockBytes at a time with pread; with `end` kToEndOfFile,
/// from the file's own offset to the end of the file with read. A line
/// that spans blocks is carried into the next read, so `buffer` holds
/// one block plus the longest line.
Status ReadLines(int fd, const std::string& path, size_t begin, size_t end,
                 LineVector<char>& buffer, RangeParser& parser) {
  size_t carry = 0;
  size_t offset = begin;
  while (true) {
    if (buffer.size() < carry + kCsvReadBlockBytes) {
      buffer.resize(carry + kCsvReadBlockBytes);
    }
    size_t want = kCsvReadBlockBytes;
    if (end != kToEndOfFile) want = std::min(want, end - offset);
    ssize_t got = 0;
    if (want > 0) {
      got = ReadSome(fd, buffer.data() + carry, want,
                     end == kToEndOfFile ? kToEndOfFile : offset);
      if (got < 0 || (got == 0 && end != kToEndOfFile)) {
        return ReadFailed(path, got);
      }
    }
    offset += static_cast<size_t>(got);
    const char* const start = buffer.data();
    const char* const stop = start + carry + static_cast<size_t>(got);
    if (got == 0) {  // end of the range: the carried line is the last
      return parser.Lines(start, stop);
    }
    const char* last_eol = static_cast<const char*>(
        memrchr(start + carry, '\n', static_cast<size_t>(got)));
    if (last_eol == nullptr) {
      carry += static_cast<size_t>(got);
      continue;
    }
    BLOWFISH_RETURN_IF_ERROR(parser.Lines(start, last_eol + 1));
    carry = static_cast<size_t>(stop - (last_eol + 1));
    std::memmove(buffer.data(), last_eol + 1, carry);
  }
}

/// Counts the lines of bytes [begin, end) of `fd`, a run of whole
/// lines, reading a `buffer` (not empty) at a time.
StatusOr<size_t> CountFileLines(int fd, const std::string& path,
                                size_t begin, size_t end,
                                LineVector<char>& buffer) {
  size_t eols = 0;
  char last = '\n';
  for (size_t offset = begin; offset < end;) {
    const ssize_t got = ReadSome(
        fd, buffer.data(), std::min(buffer.size(), end - offset), offset);
    if (got <= 0) return ReadFailed(path, got);
    const char* const data = buffer.data();
    eols += CountNewlines(data, data + got);
    last = data[got - 1];
    offset += static_cast<size_t>(got);
  }
  return eols + (last != '\n' ? 1 : 0);
}

/// The first line start at or after byte `at` of a file of `size` bytes
/// (CutRanges).
StatusOr<size_t> FileLineStart(int fd, const std::string& path, size_t size,
                               size_t at) {
  char window[4096];
  for (size_t offset = at - 1; offset < size;) {
    const ssize_t got =
        ReadSome(fd, window, std::min(sizeof window, size - offset), offset);
    if (got <= 0) return ReadFailed(path, got);
    const void* eol = std::memchr(window, '\n', static_cast<size_t>(got));
    if (eol != nullptr) {
      return offset + static_cast<size_t>(static_cast<const char*>(eol) -
                                          window) +
             1;
    }
    offset += static_cast<size_t>(got);
  }
  return size;
}

}  // namespace

namespace internal {

void SetCsvRangesForTesting(size_t ranges) {
  ranges_for_testing.store(ranges, std::memory_order_relaxed);
}

}  // namespace internal

StatusOr<Dataset> LoadCsv(const std::string& text,
                          const std::vector<CsvColumnSpec>& columns,
                          const CsvOptions& options) {
  BLOWFISH_ASSIGN_OR_RETURN(CsvLoad load, CsvLoad::Create(columns, options));
  const char* const data = text.data();
  const size_t ranges = RangeCount(text.size());
  if (ranges == 1) {
    return LoadOneRange(load, 0, [&](RangeParser& parser) {
      return parser.Lines(data, data + text.size());
    });
  }
  auto line_start = [&](size_t at) -> StatusOr<size_t> {
    const char* const end = data + text.size();
    const char* const eol = LineEnd(data + at - 1, end);
    return static_cast<size_t>(eol - data) + (eol == end ? 0 : 1);
  };
  BLOWFISH_ASSIGN_OR_RETURN(std::vector<size_t> cuts,
                            CutRanges(text.size(), ranges, line_start));
  return LoadRanges(
      load, cuts, 0,
      [&](RangeParser& range) {
        range.counted_lines = CountLines(data + range.begin, data + range.end);
        return Status::OK();
      },
      [&](RangeParser& range) {
        return range.Lines(data + range.begin, data + range.end);
      });
}

StatusOr<Dataset> LoadCsvFile(const std::string& path,
                              const std::vector<CsvColumnSpec>& columns,
                              const CsvOptions& options) {
  const FileDescriptor file(open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.get() < 0) return Status::NotFound("cannot open '" + path + "'");
  const int fd = file.get();
  BLOWFISH_ASSIGN_OR_RETURN(CsvLoad load, CsvLoad::Create(columns, options));
  // The size is read once: a file that grows while it loads is read to
  // this size, and one that shrinks fails the load.
  struct stat st;
  const bool regular = fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  const size_t size = regular ? static_cast<size_t>(st.st_size) : 0;
  const size_t ranges = regular ? RangeCount(size) : 1;
  if (ranges == 1) {
    return LoadOneRange(load, kCsvReadBlockBytes, [&](RangeParser& parser) {
      return ReadLines(fd, path, 0, kToEndOfFile, parser.block, parser);
    });
  }
  BLOWFISH_ASSIGN_OR_RETURN(
      std::vector<size_t> cuts,
      CutRanges(size, ranges, [&](size_t at) {
        return FileLineStart(fd, path, size, at);
      }));
  return LoadRanges(
      load, cuts, kCsvReadBlockBytes,
      [&](RangeParser& range) -> Status {
        BLOWFISH_ASSIGN_OR_RETURN(
            range.counted_lines,
            CountFileLines(fd, path, range.begin, range.end, range.block));
        return Status::OK();
      },
      [&](RangeParser& range) {
        return ReadLines(fd, path, range.begin, range.end, range.block,
                         range);
      });
}

}  // namespace blowfish
