// CSV ingestion: load a real dataset column (e.g. the UCI adult table's
// capital-loss attribute) into a Dataset when the user has the file, so
// the synthetic generators are only a fallback.
//
// The loader is deliberately small: comma separation, optional header,
// no quoting (none of the paper's datasets need it). Values are mapped to
// domain levels either directly (integer columns) or through per-column
// binning. It parses with no allocation per line or per cell, and
// LoadCsvFile reads the file in blocks, so a load never holds the file's
// text.
//
// Lines end at '\n'; the last line needs none. With `has_header` the
// first line is skipped whatever it holds, and a blank line is never a
// row. Line numbers in errors count both. A row's cells are split at
// every `separator`, so "4," has two cells and the second is empty.
//
// The accepted cell grammar, for each selected column, is util/parse.h's
// ParseDecimal, the one every text surface shares:
//
//   cell := space* '+'? decimal space*
//
// where `space` is any of " \t\v\f\r" (so a CRLF file's '\r' is
// trailing space) and `decimal` is a std::from_chars general-format
// number: an optional '-', digits with an optional '.', and an optional
// exponent ("4", "-0", ".5", "5.", "4e0"). A bad cell is anything else,
// and also
//   - a hex cell ("0x5"): the "0" parses and "x5" is left over;
//   - a non-finite cell: "nan", "inf", "-inf", "infinity";
//   - an out-of-range cell: overflow ("1e400"), or a nonzero magnitude
//     below the smallest normal double ("1e-400", "1e-310"). Refusing
//     subnormals is the one rule CSV cells add to ParseDecimal.
//
// A row is bad when it has too few cells for the widest selected column
// or when any selected cell is bad. With `skip_bad_rows` (the default) a
// bad row is dropped and counted in `data_rows_skipped`; without it the
// load fails with InvalidArgument naming the row's line. A good cell's
// level is floor((value - offset) / bin_width), clamped into the
// attribute's levels.
//
// Most cells are plain integers, so a selected cell of 1 to 15 ASCII
// digits, with at most one '\r' after them (trailing space above, as in
// a CRLF row's last cell), is read in place as an integer v, with no
// std::from_chars. Every other cell is parsed by the grammar above. The
// read is exact, not a second grammar:
//   - v < 10^15 < 2^53, so (double)v is exact and equals what the
//     correctly rounded decimal parse returns for the same text (and v
//     is 0 or at least 1, never subnormal);
//   - for a column with bin_width 1 and offset 0, floor((v - 0) / 1) is
//     v, so the level is min(v, cardinality - 1), with no floating
//     point;
//   - any other column takes the floor, divide and clamp above on the
//     exact (double)v.
// The row scan splits a line at its separators byte by byte, up to the
// widest selected column; an unselected cell is skipped, never parsed.
//
// A large input is parsed on several threads. It is cut into W byte
// ranges, each moved forward to the next line start, so every range is
// a run of whole lines (a cut inside a long line moves to its end, and
// two cuts can meet, leaving a range empty). W is the least of the
// hardware threads, 8, and the input's size over 256 KiB, rounded down
// (but at least 1). Range 0 runs on the calling thread and each other
// range on a thread of its own, started and joined within the call:
//   - pass 1 counts each range's lines;
//   - the tuple vector is then allocated once, one slot per line but the
//     header, and never grown;
//   - pass 2 parses each range into its own run of slots;
//   - a merge in range order returns the error of the first range that
//     failed, with its line number in the whole input, and moves each
//     range's rows down over the slots its blank and bad lines left
//     empty.
// So the tuples, the errors and the metrics are the same at every W.
// An input under 512 KiB, and a pipe, is one range, parsed front to
// back on the calling thread into a vector that grows. Each range's row
// buffers sit on cache lines that only it writes; the seen levels of a
// column up to 2^26 levels wide are one bitmap of atomic words that all
// ranges share, written only when a bit is clear.

#ifndef BLOWFISH_DATA_CSV_LOADER_H_
#define BLOWFISH_DATA_CSV_LOADER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/domain.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace blowfish {

struct CsvColumnSpec {
  /// Zero-based column index in the file.
  size_t column = 0;
  /// Attribute descriptor; values are clamped into
  /// [0, cardinality - 1] after binning.
  Attribute attribute;
  /// Value of the column is divided by `bin_width` to obtain the level
  /// (1.0 = take the integer value as the level).
  double bin_width = 1.0;
  /// Offset subtracted before binning (for columns not starting at 0).
  double offset = 0.0;
};

struct CsvOptions {
  bool has_header = true;
  char separator = ',';
  /// Bad rows (see above) are skipped when true, and cause an error when
  /// false.
  bool skip_bad_rows = true;
  /// Registry the load metrics report into; nullptr = the process-wide
  /// default (what the STATS verb and SIGUSR1 Prometheus dump serve).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Parses CSV text into a dataset over the cross product of the selected
/// columns' attributes. A successful load records, into
/// `options.metrics`:
///
///   data_load_seconds                   cumulative seconds spent loading
///                                       (for LoadCsvFile, reading the
///                                       file too)
///   data_rows                           cumulative rows loaded (gauge)
///   data_rows_skipped                   cumulative bad rows skipped
///                                       (gauge)
///   data_column_cardinality{attr=NAME}  observed distinct levels of the
///                                       most recently loaded column with
///                                       that attribute name
///
/// Loads happen sequentially at startup (config parsing / tenant
/// construction), so the set-to-latest cardinality is stable.
StatusOr<Dataset> LoadCsv(const std::string& text,
                          const std::vector<CsvColumnSpec>& columns,
                          const CsvOptions& options = {});

/// The block LoadCsvFile reads at a time.
constexpr size_t kCsvReadBlockBytes = size_t{1} << 16;

/// Loads the file at `path` as LoadCsv loads its bytes, returning what
/// LoadCsv(text) returns, errors and metrics included. A regular file's
/// size is read once, at open, and sets W. A file of W > 1 ranges is
/// read to that size, and the load fails with Internal if the file
/// turns out shorter or its lines change between the passes; each
/// range's thread reads only its own bytes, kCsvReadBlockBytes at a time
/// with pread, in pass 1 and again in pass 2. A file of one range, and a
/// pipe ("--csv <(zcat data.csv.gz)"), is read once, front to back to
/// its end with no seek, on the calling thread. A line that spans
/// blocks is carried into the next read, so the text in memory is at
/// most one block plus the longest line per range, never the whole
/// file, and a file cut into ranges puts its tuples in one vector sized
/// once by its line count. NotFound when the file cannot be opened.
StatusOr<Dataset> LoadCsvFile(const std::string& path,
                              const std::vector<CsvColumnSpec>& columns,
                              const CsvOptions& options = {});

namespace internal {

/// Test seam: cuts every later load of a regular file or of text into
/// `ranges` ranges (at most 8, and at most one per input byte) whatever
/// its size; 0 restores the rule in the header comment. A pipe stays one
/// range.
void SetCsvRangesForTesting(size_t ranges);

}  // namespace internal

}  // namespace blowfish

#endif  // BLOWFISH_DATA_CSV_LOADER_H_
