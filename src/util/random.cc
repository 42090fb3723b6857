#include "util/random.h"

#include <cassert>
#include <cmath>

namespace blowfish {

namespace {

/// Laplace(scale) from a uniform `u01` in [0, 1) by the inverse CDF:
/// U = u01 - 1/2 is uniform in [-1/2, 1/2), Z = -b * sgn(U) * ln(1 - 2|U|).
double LaplaceFromUniform(double u01, double scale) {
  assert(scale > 0.0);
  double u = u01 - 0.5;
  // Guard against u == -0.5 producing log(0).
  if (u <= -0.5) u = std::nextafter(-0.5, 0.0);
  double sign = (u < 0.0) ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

}  // namespace

double Random::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
}

double Random::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

int64_t Random::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return std::uniform_int_distribution<int64_t>(lo, hi)(gen_);
}

bool Random::Bernoulli(double p) {
  assert(p >= 0.0 && p <= 1.0);
  return std::bernoulli_distribution(p)(gen_);
}

double Random::Laplace(double scale) {
  return LaplaceFromUniform(Uniform(), scale);
}

double Random::LaplaceAt(uint64_t key, uint64_t index, double scale) {
  const uint64_t word = SplitMix64(key ^ SplitMix64(index));
  // The top 53 bits, scaled by 2^-53: every double in [0, 1) this can
  // produce is exact.
  return LaplaceFromUniform(static_cast<double>(word >> 11) * 0x1.0p-53,
                            scale);
}

std::vector<double> Random::LaplaceVector(size_t n, double scale) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = Laplace(scale);
  return out;
}

double Random::Gaussian(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(gen_);
}

Random Random::Fork() {
  return Random(gen_());
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Random Random::Fork(uint64_t stream_id) const {
  return Random(SplitMix64(seed_ ^ SplitMix64(stream_id)));
}

}  // namespace blowfish
