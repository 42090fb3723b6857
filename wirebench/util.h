// Small helpers shared by the wirebench translation units: a monotonic
// clock, order statistics, a stable byte digest, and the metric line
// printer every report section uses.

#ifndef WIREBENCH_UTIL_H_
#define WIREBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/stats.h"

namespace wirebench {

/// Seconds on the steady clock (arbitrary epoch).
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// blowfish::Quantile (linear interpolation), but 0 for an empty sample.
inline double QuantileOrZero(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : blowfish::Quantile(v, q);
}

inline double Median(const std::vector<double>& v) {
  return QuantileOrZero(v, 0.5);
}

/// Samples strictly above `threshold`.
inline size_t CountAbove(const std::vector<double>& v, double threshold) {
  return static_cast<size_t>(std::count_if(
      v.begin(), v.end(), [&](double x) { return x > threshold; }));
}

/// FNV-1a over raw bytes, chainable.
class Digest {
 public:
  void Bytes(const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One report line: `  name = value unit (n=count)`.
inline void PrintMetric(const std::string& name, double value,
                        const std::string& unit, size_t count) {
  std::printf("  %-36s = %.6g %s (n=%zu)\n", name.c_str(), value,
              unit.c_str(), count);
}

}  // namespace wirebench

#endif  // WIREBENCH_UTIL_H_
