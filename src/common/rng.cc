#include "src/common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tenantnet {

namespace {

// SplitMix64 step: advances state and returns a well-mixed 64-bit output.
uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t Rng::NextU64() { return SplitMix64(state_); }

uint64_t Rng::NextU64(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  if (span == 0) {
    return static_cast<int64_t>(NextU64());
  }
  return lo + static_cast<int64_t>(NextU64(span));
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

double Rng::NextExponential(double rate) {
  assert(rate > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -std::log(1.0 - u) / rate;
}

uint64_t Rng::NextPoisson(double mean) {
  assert(mean >= 0);
  if (mean == 0) {
    return 0;
  }
  if (mean < 64.0) {
    // Knuth inversion.
    double l = std::exp(-mean);
    uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= NextDouble();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation for large means.
  double draw = NextNormal(mean, std::sqrt(mean));
  return draw <= 0 ? 0 : static_cast<uint64_t>(std::llround(draw));
}

double Rng::NextNormal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  double mag = std::sqrt(-2.0 * std::log(u1));
  double z0 = mag * std::cos(2.0 * M_PI * u2);
  double z1 = mag * std::sin(2.0 * M_PI * u2);
  spare_normal_ = z1;
  has_spare_normal_ = true;
  return mean + stddev * z0;
}

double Rng::NextPareto(double x_min, double alpha) {
  assert(x_min > 0 && alpha > 0);
  double u = NextDouble();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return x_min / std::pow(u, 1.0 / alpha);
}

Rng Rng::Fork() {
  // Child seed derived from two parent draws; streams are independent for
  // simulation purposes.
  uint64_t a = NextU64();
  uint64_t b = NextU64();
  return Rng(a ^ (b << 1) ^ 0xA5A5A5A5A5A5A5A5ULL);
}

ZipfSampler::ZipfSampler(uint64_t n, double s) {
  assert(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& v : cdf_) {
    v /= total;
  }
  cdf_.back() = 1.0;  // exact, despite rounding
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) {
    return cdf_.size() - 1;
  }
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace tenantnet
