#include "workload/characterize.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::trace_of;

const Bytes kRef = gib(std::int64_t{100});

TEST(Characterize, EmptyTrace) {
  const TraceStats s = characterize(Trace{}, kRef, 64);
  EXPECT_EQ(s.job_count, 0u);
  EXPECT_DOUBLE_EQ(s.offered_load, 0.0);
}

TEST(Characterize, BasicCounts) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(2).mem_gib(10).user(1),
                            job(1).at_h(4.0).nodes(6).mem_gib(60).user(2),
                            job(2).at_h(8.0).nodes(4).mem_gib(120).user(1)});
  const TraceStats s = characterize(t, kRef, 64);
  EXPECT_EQ(s.job_count, 3u);
  EXPECT_DOUBLE_EQ(s.span_hours, 8.0);
  EXPECT_DOUBLE_EQ(s.nodes_mean, 4.0);
  EXPECT_DOUBLE_EQ(s.nodes_max, 6.0);
  EXPECT_EQ(s.distinct_users, 2);
}

TEST(Characterize, MemoryThresholdFractions) {
  const Trace t = trace_of({job(0).mem_gib(10), job(1).at_h(0.5).mem_gib(60),
                            job(2).at_h(1.0).mem_gib(120),
                            job(3).at_h(2.0).mem_gib(40)});
  const TraceStats s = characterize(t, kRef, 64);
  // above half (50 GiB): 60 and 120 -> 2/4
  EXPECT_DOUBLE_EQ(s.frac_mem_above_half, 0.5);
  // above full (100 GiB): 120 -> 1/4
  EXPECT_DOUBLE_EQ(s.frac_mem_above_full, 0.25);
}

TEST(Characterize, ExactlyHalfIsNotAboveHalf) {
  const Trace t = trace_of({job(0).mem_gib(50), job(1).at_h(1.0).mem_gib(51)});
  const TraceStats s = characterize(t, kRef, 64);
  EXPECT_DOUBLE_EQ(s.frac_mem_above_half, 0.5);  // only the 51 GiB job
}

TEST(Characterize, EstimateAccuracy) {
  const Trace t = trace_of({job(0).runtime_h(1.0).walltime_h(2.0),
                            job(1).at_h(1.0).runtime_h(1.0).walltime_h(1.0)});
  const TraceStats s = characterize(t, kRef, 64);
  EXPECT_DOUBLE_EQ(s.estimate_accuracy_mean, 0.75);  // (0.5 + 1.0)/2
}

TEST(Characterize, MemoryFootprintsExtraction) {
  const Trace t = trace_of({job(0).mem_gib(10), job(1).at_h(1.0).mem_gib(20)});
  const auto v = memory_footprints_gib(t);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 10.0);
  EXPECT_DOUBLE_EQ(v[1], 20.0);
}

TEST(Characterize, OfferedLoadMatchesTraceMethod) {
  const Trace t = trace_of({job(0).nodes(8).runtime_h(2.0),
                            job(1).at_h(4.0).nodes(8).runtime_h(2.0)});
  const TraceStats s = characterize(t, kRef, 16);
  EXPECT_DOUBLE_EQ(s.offered_load, t.offered_load(16));
}

TEST(Cdf, EmptyInput) {
  EXPECT_TRUE(empirical_cdf({}, 10).empty());
}

TEST(Cdf, MonotoneNondecreasing) {
  std::vector<double> xs;
  for (int i = 0; i < 997; ++i) xs.push_back((i * 7919) % 1000 / 10.0);
  const auto cdf = empirical_cdf(xs, 50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].x, cdf[i - 1].x);
    EXPECT_GE(cdf[i].cumulative_fraction, cdf[i - 1].cumulative_fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_fraction, 1.0);
}

TEST(Cdf, EndpointsCoverRange) {
  const auto cdf = empirical_cdf({5.0, 1.0, 3.0}, 3);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.front().x, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().x, 5.0);
}

TEST(Cdf, UniformSamplesGiveLinearCdf) {
  std::vector<double> xs;
  for (int i = 0; i <= 1000; ++i) xs.push_back(static_cast<double>(i));
  const auto cdf = empirical_cdf(xs, 11);
  // F(x) ≈ x/1000
  for (const auto& p : cdf) {
    EXPECT_NEAR(p.cumulative_fraction, p.x / 1000.0, 0.01);
  }
}

}  // namespace
}  // namespace dmsched
