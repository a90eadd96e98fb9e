// Deterministic pseudo-random number generation for the whole repository.
//
// Everything in SplitQuant that involves randomness (synthetic weights,
// workload sampling, simulator jitter) must be
// reproducible from a single 64-bit seed so that tests and benchmarks are
// stable across runs and machines.  We deliberately avoid <random>'s
// distribution objects because their output is implementation-defined; the
// generators below produce identical streams everywhere.
#pragma once

#include <cstdint>
#include <vector>

namespace sq::tensor {

/// SplitMix64: tiny, fast, well-distributed 64-bit generator.  Used both as
/// a stream generator and as a seed-scrambler for derived seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform float in [0, 1).
  float next_float();

  /// Uniform integer in [0, n) for n >= 1 (unbiased via rejection).
  std::uint64_t next_below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Deterministic RNG with the sampling helpers used across SplitQuant.
///
/// Gaussian variates use Box-Muller on SplitMix64 output, giving a portable,
/// fully reproducible stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return gen_.next_double(); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return gen_.next_below(n); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Standard normal variate (Box-Muller; caches the second variate).
  double normal();

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Log-normal variate: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Fill `out` with N(mean, stddev) floats.
  void fill_normal(std::vector<float>& out, float mean, float stddev);

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

 private:
  SplitMix64 gen_;
  bool has_cached_ = false;
  double cached_ = 0.0;
};

/// Derive a child seed from a parent seed and a stream index.  Used to give
/// each layer / request / device its own independent reproducible stream.
std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t stream);

/// Derive a seed from a string tag (FNV-1a), for naming streams by purpose.
std::uint64_t seed_from_string(const char* tag);

}  // namespace sq::tensor
