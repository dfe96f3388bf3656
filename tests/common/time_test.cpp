#include "common/time.hpp"

#include <gtest/gtest.h>

namespace dmsched {
namespace {

TEST(SimTime, Constructors) {
  EXPECT_EQ(SimTime{}.usec(), 0);
  EXPECT_EQ(seconds(std::int64_t{3}).usec(), 3'000'000);
  EXPECT_EQ(minutes(2).usec(), 120'000'000);
  EXPECT_EQ(hours(1).usec(), 3'600'000'000LL);
  EXPECT_EQ(days(1).usec(), 86'400'000'000LL);
}

TEST(SimTime, FractionalSecondsRound) {
  EXPECT_EQ(seconds(0.5).usec(), 500'000);
  EXPECT_EQ(seconds(1e-6).usec(), 1);
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(seconds(std::int64_t{90}).seconds(), 90.0);
  EXPECT_DOUBLE_EQ(hours(3).hours(), 3.0);
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ((hours(1) + minutes(30)).usec(), minutes(90).usec());
  EXPECT_EQ((hours(1) - minutes(15)).usec(), minutes(45).usec());
}

TEST(SimTime, ScaledAppliesDilation) {
  EXPECT_EQ(seconds(std::int64_t{100}).scaled(1.5).usec(),
            seconds(std::int64_t{150}).usec());
  // rounding to nearest microsecond
  EXPECT_EQ(usec(3).scaled(0.5).usec(), 2);  // 1.5 rounds to 2
  EXPECT_EQ(seconds(std::int64_t{10}).scaled(1.0).usec(),
            seconds(std::int64_t{10}).usec());
}

TEST(SimTime, NegativeValuesRoundLikeTheirMagnitudes) {
  // Rounding is symmetric: a negative input lands on the negation of its
  // magnitude's result, never one microsecond toward zero.
  for (const double x : {1.0, 0.5, 2.5e-6, 1.5e-6, 0.4e-6, 3600.25}) {
    EXPECT_EQ(seconds(-x).usec(), -seconds(x).usec()) << x;
  }
  EXPECT_EQ(seconds(-1.0).usec(), -1'000'000);
  for (const std::int64_t n : {1, 3, 5, 1'000'001}) {
    for (const double f : {0.5, 1.5, 0.1, 2.0}) {
      EXPECT_EQ(usec(-n).scaled(f).usec(), -usec(n).scaled(f).usec())
          << n << " x " << f;
    }
  }
  EXPECT_EQ(usec(-3).scaled(0.5).usec(), -2);  // -1.5 rounds to -2
  EXPECT_EQ(usec(3).scaled(-0.5).usec(), -2);
}

TEST(SimTime, PositiveHalvesStillRoundUp) {
  EXPECT_EQ(seconds(2.5e-6).usec(), 3);
  EXPECT_EQ(seconds(0.4e-6).usec(), 0);
  EXPECT_EQ(seconds(1.5).usec(), 1'500'000);
  EXPECT_EQ(usec(5).scaled(0.5).usec(), 3);  // 2.5 rounds to 3
  EXPECT_EQ(usec(1).scaled(0.5).usec(), 1);  // 0.5 rounds to 1
}

TEST(SimTime, MinMax) {
  EXPECT_EQ(min(hours(1), hours(2)), hours(1));
  EXPECT_EQ(max(hours(1), hours(2)), hours(2));
}

TEST(SimTime, InfinityIsLargest) {
  EXPECT_LT(days(10000), kTimeInfinity);
}

}  // namespace
}  // namespace dmsched
