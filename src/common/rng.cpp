#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/assert.hpp"

namespace dmsched {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> [0,1) with full double mantissa coverage.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  DMSCHED_ASSERT(lo <= hi, "uniform(): inverted range");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DMSCHED_ASSERT(lo <= hi, "uniform_int(): inverted range");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t r = next_u64();
  while (r >= limit) r = next_u64();
  return lo + static_cast<std::int64_t>(r % span);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal() {
  // Box–Muller; u1 is nudged away from zero to keep log() finite.
  const double u1 = std::max(uniform(), 0x1.0p-53);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(mu + sigma * normal());
}

double Rng::exponential(double rate) {
  DMSCHED_ASSERT(rate > 0.0, "exponential(): rate must be positive");
  const double u = std::max(uniform(), 0x1.0p-53);
  return -std::log(u) / rate;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  DMSCHED_ASSERT(!weights.empty(), "weighted_index(): empty weights");
  double total = 0.0;
  for (double w : weights) {
    DMSCHED_ASSERT(w >= 0.0, "weighted_index(): negative weight");
    total += w;
  }
  DMSCHED_ASSERT(total > 0.0, "weighted_index(): all-zero weights");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge: last bucket
}

Rng Rng::fork(std::uint64_t tag) const {
  // Mix the current state with the tag through SplitMix to derive a stream
  // that is independent for all practical purposes.
  std::uint64_t h = s_[0] ^ rotl(s_[2], 13) ^ (tag * 0x9E3779B97F4A7C15ULL);
  return Rng{splitmix64(h)};
}

}  // namespace dmsched
