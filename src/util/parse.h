// Strict numeric parsing for user-facing text inputs (config files,
// request files, CLI flags, ledgers, CSV cells).
//
// std::stoul/std::stod abort the process on malformed input via uncaught
// exceptions, strtod takes hex and "nan", and raw strtoull silently
// wraps negative input to huge values. Every surface that parses
// untrusted text shares these helpers so the accepted grammar cannot
// drift between the batch-request file, the serve config, the CLI
// flags and the CSV loader.

#ifndef BLOWFISH_UTIL_PARSE_H_
#define BLOWFISH_UTIL_PARSE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace blowfish {

/// Parses `text` by the one decimal grammar of every text surface:
///
///   number := space* '+'? decimal space*
///
/// where `space` is a "C"-locale isspace character (" \t\n\v\f\r") and
/// `decimal` is a std::from_chars general-format number: an optional
/// '-', digits with an optional '.', and an optional exponent ("4",
/// "-0", ".5", "5.", "4e0", "1e+300"). Returns false for anything else,
/// and also for
///   - hex ("0x1p-1"): the "0" parses and "x1p-1" is left over;
///   - a non-finite value: "nan", "inf", "-inf", "infinity";
///   - a magnitude out of range: overflow ("1e400"), or underflow below
///     the smallest subnormal ("1e-400").
/// Subnormals ("1e-310", "4.9406564584124654e-324") are accepted: %.17g
/// prints them, and a value that is written must read back.
bool ParseDecimal(std::string_view text, double* value);

/// ParseDecimal with an error: `context` names the offending key/flag.
/// Request files, serve configs, CLI flags and ledgers read numbers
/// through it. CSV cells take the same grammar with one difference:
/// they refuse subnormals (data/csv_loader.h).
StatusOr<double> ParseFiniteDouble(const std::string& value,
                                   const std::string& context);

/// Parses a non-negative integer, rejecting '-' (which strtoull would
/// silently wrap to a huge value).
StatusOr<uint64_t> ParseNonNegativeInt(const std::string& value,
                                       const std::string& context);

}  // namespace blowfish

#endif  // BLOWFISH_UTIL_PARSE_H_
