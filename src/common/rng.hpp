// Deterministic random number generation.
//
// We intentionally avoid <random> engines/distributions: their sequences are
// implementation-defined, which would make "same seed, same schedule"
// unreproducible across standard libraries. Xoshiro256** plus hand-rolled
// distributions give bit-identical traces everywhere.
#pragma once

#include <cstdint>
#include <span>

namespace dmsched {

/// SplitMix64: seeds Xoshiro and hashes integers into well-mixed words.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Xoshiro256** PRNG with portable, documented output sequences.
///
/// Each simulation entity that needs randomness derives its own stream via
/// `fork(tag)` so the consumption order of one component cannot perturb
/// another (critical when comparing schedulers on "the same" workload).
class Rng {
 public:
  /// Seed the generator; any 64-bit value is acceptable (0 included).
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability `p`.
  bool bernoulli(double p);

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double normal();
  /// Lognormal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);

  /// Sample an index from unnormalized non-negative weights.
  std::size_t weighted_index(std::span<const double> weights);

  /// Derive an independent child stream; `tag` namespaces the purpose.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;

 private:
  std::uint64_t s_[4];
};

}  // namespace dmsched
