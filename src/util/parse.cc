#include "util/parse.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace blowfish {

namespace {

/// std::isspace in the "C" locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

}  // namespace

bool ParseDecimal(std::string_view text, double* value) {
  const char* begin = text.data();
  const char* const end = begin + text.size();
  while (begin != end && IsSpace(*begin)) ++begin;
  if (begin != end && *begin == '+') {
    ++begin;
    // from_chars would take the '-' of "+-4" as the sign.
    if (begin != end && *begin == '-') return false;
  }
  const auto [stop, error] = std::from_chars(begin, end, *value);
  if (error != std::errc()) return false;  // malformed, or out of range
  for (const char* p = stop; p != end; ++p) {
    if (!IsSpace(*p)) return false;
  }
  // strtod-style parsers take "nan" and "inf": values that silently
  // defeat budget comparisons (spent + eps > budget is never true
  // against NaN).
  return std::isfinite(*value);
}

StatusOr<double> ParseFiniteDouble(const std::string& value,
                                   const std::string& context) {
  double parsed = 0.0;
  if (!ParseDecimal(value, &parsed)) {
    return Status::InvalidArgument("malformed number '" + value + "' for " +
                                   context);
  }
  return parsed;
}

StatusOr<uint64_t> ParseNonNegativeInt(const std::string& value,
                                       const std::string& context) {
  if (value.find('-') != std::string::npos) {
    return Status::InvalidArgument("expected a non-negative integer, got '" +
                                   value + "' for " + context);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("malformed integer '" + value + "' for " +
                                   context);
  }
  // Without this, out-of-range input silently clamps to ULLONG_MAX.
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer '" + value +
                                   "' out of range for " + context);
  }
  return static_cast<uint64_t>(parsed);
}

}  // namespace blowfish
