#include "workload/transform.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::trace_of;

Trace sample() {
  return trace_of({job(0).at_h(0.0).nodes(2).runtime_h(1.0).walltime_h(3.0),
                   job(1).at_h(1.0).nodes(8).runtime_h(2.0).walltime_h(2.0),
                   job(2).at_h(2.0).nodes(1).runtime_h(0.5).walltime_h(2.0)});
}

TEST(Transform, MapRewritesJobs) {
  const Trace t = map_trace(sample(), [](Job j) {
    j.nodes *= 2;
    return j;
  });
  EXPECT_EQ(t.job(0).nodes, 4);
  EXPECT_EQ(t.job(1).nodes, 16);
}

TEST(Transform, MapPreservesName) {
  EXPECT_EQ(map_trace(sample(), [](Job j) { return j; }).name(), "test");
}

TEST(Transform, ExactWalltimesHitAccuracyOne) {
  const Trace t = with_exact_walltimes(sample(), minutes(60));
  for (const Job& j : t.jobs()) {
    EXPECT_GE(j.walltime, j.runtime);
    // rounded to the hour, runtimes are whole/half hours here
    EXPECT_LE((j.walltime - j.runtime).seconds(), 3600.0);
  }
  EXPECT_GT(mean_estimate_accuracy(t), mean_estimate_accuracy(sample()));
}

TEST(Transform, ExactWalltimesRoundingFloorsAtRuntime) {
  const Trace base = trace_of({job(0).runtime(seconds(std::int64_t{301}))});
  const Trace t = with_exact_walltimes(base, minutes(5));
  // 301 s rounds up to 600 s, never below the runtime
  EXPECT_EQ(t.job(0).walltime, seconds(std::int64_t{600}));
}

TEST(Transform, WalltimeFactorBounds) {
  const Trace t = with_walltime_factor(sample(), 2.0, 4.0, 9, minutes(1));
  for (const Job& j : t.jobs()) {
    const double factor = j.walltime.seconds() / j.runtime.seconds();
    EXPECT_GE(factor, 2.0 - 1e-9);
    EXPECT_LE(factor, 4.0 + 61.0 / j.runtime.seconds());  // + rounding slack
  }
}

TEST(Transform, WalltimeFactorDeterministic) {
  const Trace a = with_walltime_factor(sample(), 1.0, 5.0, 42);
  const Trace b = with_walltime_factor(sample(), 1.0, 5.0, 42);
  for (JobId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.job(i).walltime, b.job(i).walltime);
  }
}

TEST(Transform, WalltimeFactorBelowOneAborts) {
  EXPECT_DEATH((void)with_walltime_factor(sample(), 0.5, 2.0, 1),
               "upper bound");
}

TEST(Transform, MeanEstimateAccuracy) {
  // accuracies: 1/3, 1, 1/4 -> mean ≈ 0.5278
  EXPECT_NEAR(mean_estimate_accuracy(sample()),
              (1.0 / 3.0 + 1.0 + 0.25) / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(mean_estimate_accuracy(Trace{}), 1.0);
}

}  // namespace
}  // namespace dmsched
