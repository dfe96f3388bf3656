#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace dmsched {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(StreamingStats, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(SampleStats, PercentilesExact) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
}

TEST(SampleStats, PercentileOfEmptyIsZero) {
  SampleStats s;
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(SampleStats, SingleSample) {
  SampleStats s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
}

TEST(SampleStats, CacheInvalidatedByAdd) {
  SampleStats s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.0);  // builds the sorted cache
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);  // cache must refresh
}

TEST(SampleStats, UnsortedInput) {
  SampleStats s;
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

TEST(TimeWeightedMean, ConstantSignal) {
  TimeWeightedMean tw;
  tw.record(0.0, 4.0);
  EXPECT_DOUBLE_EQ(tw.finish(10.0), 4.0);
  EXPECT_DOUBLE_EQ(tw.peak(), 4.0);
}

TEST(TimeWeightedMean, StepSignal) {
  TimeWeightedMean tw;
  tw.record(0.0, 0.0);
  tw.record(5.0, 10.0);  // 0 for [0,5), 10 for [5,10)
  EXPECT_DOUBLE_EQ(tw.finish(10.0), 5.0);
  EXPECT_DOUBLE_EQ(tw.peak(), 10.0);
}

TEST(TimeWeightedMean, MultipleSteps) {
  TimeWeightedMean tw;
  tw.record(0.0, 2.0);
  tw.record(2.0, 6.0);
  tw.record(6.0, 0.0);
  // 2*2 + 6*4 + 0*4 = 28 over 10
  EXPECT_DOUBLE_EQ(tw.finish(10.0), 2.8);
}

TEST(TimeWeightedMean, EmptyIsZero) {
  TimeWeightedMean tw;
  EXPECT_DOUBLE_EQ(tw.finish(10.0), 0.0);
  EXPECT_DOUBLE_EQ(tw.peak(), 0.0);
}

TEST(TimeWeightedMean, RepeatedTimestamp) {
  TimeWeightedMean tw;
  tw.record(0.0, 1.0);
  tw.record(5.0, 2.0);
  tw.record(5.0, 3.0);  // zero-width segment is fine
  EXPECT_DOUBLE_EQ(tw.finish(10.0), (1.0 * 5 + 3.0 * 5) / 10.0);
}

}  // namespace
}  // namespace dmsched
