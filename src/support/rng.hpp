// Deterministic random number generation.
//
// Every stochastic stage in the repository (placer moves, router tie-breaks,
// ML weight init, dataset splits) takes an explicit seed and owns its own Rng
// instance; there is no global RNG state. The generator is xoshiro256**
// seeded via splitmix64, which is fast, high-quality and reproducible across
// platforms (unlike std::mt19937 + std::uniform_* whose distributions are
// implementation-defined — we implement our own distribution mappings).
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace hcp {

/// xoshiro256** PRNG with explicit seeding and portable distributions.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling (Lemire) so the result is exactly uniform.
  std::uint64_t uniformInt(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniformReal();

  /// Uniform double in [lo, hi).
  double uniformReal(double lo, double hi);

  /// Standard normal via Box-Muller (cached second variate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniformInt(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::uint64_t s_[4];
  bool hasCachedNormal_ = false;
  double cachedNormal_ = 0.0;
};

}  // namespace hcp
