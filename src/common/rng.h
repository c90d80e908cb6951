// Deterministic random number generation.
//
// Every stochastic component (workload generators, attack traffic, jitter
// models) draws from an Rng seeded explicitly by its owner. The same seed
// always reproduces the same run, which the tests rely on. The generator is
// SplitMix64-based: tiny state, excellent statistical quality for simulation
// purposes, and trivially copyable so components can fork independent
// streams.

#ifndef TENANTNET_SRC_COMMON_RNG_H_
#define TENANTNET_SRC_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace tenantnet {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  // Uniform over all 64-bit values.
  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling so the
  // distribution is exactly uniform.
  uint64_t NextU64(uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double NextDouble(double lo, double hi);

  // Bernoulli trial.
  bool NextBool(double p_true);

  // Exponential with the given rate (mean 1/rate).
  double NextExponential(double rate);

  // Poisson-distributed count with the given mean. Uses inversion for small
  // means and a normal approximation above 64 (adequate for workload gen).
  uint64_t NextPoisson(double mean);

  // Standard normal via Box-Muller.
  double NextNormal(double mean, double stddev);

  // Pareto (heavy-tailed) with scale x_min > 0 and shape alpha > 0.
  double NextPareto(double x_min, double alpha);

  // Fork an independent stream (e.g. one per tenant) such that the child
  // sequence does not overlap the parent's in practice.
  Rng Fork();

 private:
  uint64_t state_;
  // Box-Muller produces pairs; cache the spare.
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

// Zipf-distributed ranks in [0, n): rank k has probability proportional to
// 1/(k+1)^s. Precomputed CDF, O(log n) per draw.
class ZipfSampler {
 public:
  // Ranks [0, n), exponent s >= 0 (s = 0 is uniform).
  ZipfSampler(uint64_t n, double s);

  uint64_t Sample(Rng& rng) const;
  uint64_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_COMMON_RNG_H_
