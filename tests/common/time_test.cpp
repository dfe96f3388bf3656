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

TEST(SimTime, MinMax) {
  EXPECT_EQ(min(hours(1), hours(2)), hours(1));
  EXPECT_EQ(max(hours(1), hours(2)), hours(2));
}

TEST(SimTime, InfinityIsLargest) {
  EXPECT_LT(days(10000), kTimeInfinity);
}

}  // namespace
}  // namespace dmsched
