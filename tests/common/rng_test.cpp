#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace dmsched {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanConverges) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(3);
  std::array<int, 7> counts{};
  for (int i = 0; i < 14'000; ++i) {
    const auto v = rng.uniform_int(2, 8);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 8);
    ++counts[static_cast<std::size_t>(v - 2)];
  }
  // every value appears roughly 1/7 of the time
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double x = 10.0 + 2.0 * rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / kN, 4.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng rng(31);
  std::vector<double> xs(20'001);
  for (auto& x : xs) x = rng.lognormal(2.0, 0.8);
  std::nth_element(xs.begin(), xs.begin() + 10'000, xs.end());
  EXPECT_NEAR(xs[10'000], std::exp(2.0), 0.3);
}

TEST(Rng, WeightedIndexDistribution) {
  Rng rng(41);
  const std::array<double, 3> weights{1.0, 2.0, 7.0};
  std::array<int, 3> counts{};
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.2, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.7, 0.02);
}

TEST(Rng, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(43);
  const std::array<double, 3> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.weighted_index(weights), 1u);
}

TEST(Rng, ForkIndependence) {
  Rng parent(55);
  Rng child1 = parent.fork(1);
  Rng child2 = parent.fork(2);
  // different tags give different streams
  EXPECT_NE(child1.next_u64(), child2.next_u64());
  // forking does not disturb the parent (const)
  Rng parent2(55);
  [[maybe_unused]] Rng c = parent2.fork(1);
  Rng parent3(55);
  EXPECT_EQ(parent2.next_u64(), parent3.next_u64());
}

}  // namespace
}  // namespace dmsched
