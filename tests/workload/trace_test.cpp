#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/input_error.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::trace_of;

TEST(Trace, MakeSortsBySubmitAndReassignsIds) {
  Trace t = trace_of({job(0).at_h(5.0), job(1).at_h(1.0), job(2).at_h(3.0)});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.job(0).submit, seconds(3600.0));
  EXPECT_EQ(t.job(1).submit, seconds(3.0 * 3600));
  EXPECT_EQ(t.job(2).submit, seconds(5.0 * 3600));
  for (JobId i = 0; i < 3; ++i) EXPECT_EQ(t.job(i).id, i);
}

TEST(Trace, StableSortPreservesEqualSubmitOrder) {
  Trace t = trace_of({job(0).at_h(1.0).nodes(1), job(1).at_h(1.0).nodes(2)});
  EXPECT_EQ(t.job(0).nodes, 1);
  EXPECT_EQ(t.job(1).nodes, 2);
}

TEST(Trace, SpanMeasuresSubmitWindow) {
  Trace t = trace_of({job(0).at_h(2.0), job(1).at_h(8.0)});
  EXPECT_DOUBLE_EQ(t.span().hours(), 6.0);
}

TEST(Trace, SpanOfSingleJobIsZero) {
  Trace t = trace_of({job(0).at_h(2.0)});
  EXPECT_EQ(t.span(), SimTime{});
}

TEST(Trace, RebasedShiftsEpochToZero) {
  Trace t = trace_of({job(0).at_h(10.0), job(1).at_h(12.0)}).rebased();
  EXPECT_EQ(t.job(0).submit, SimTime{});
  EXPECT_DOUBLE_EQ(t.job(1).submit.hours(), 2.0);
}

TEST(Trace, PrefixTakesFirstN) {
  Trace t = trace_of({job(0).at_h(1.0), job(1).at_h(2.0), job(2).at_h(3.0)});
  const Trace p = t.prefix(2);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p.jobs().back().submit.hours(), 2.0);
}

TEST(Trace, PrefixBeyondSizeIsWholeTrace) {
  Trace t = trace_of({job(0)});
  EXPECT_EQ(t.prefix(100).size(), 1u);
}

TEST(Trace, OfferedLoadFormula) {
  // two jobs × 4 nodes × 1 h over a 2 h span on 8 nodes: load = 8/(8*2)=0.5
  Trace t = trace_of({job(0).at_h(0.0).nodes(4).runtime_h(1.0),
                      job(1).at_h(2.0).nodes(4).runtime_h(1.0)});
  EXPECT_DOUBLE_EQ(t.offered_load(8), 0.5);
}

TEST(Trace, OfferedLoadZeroSpan) {
  Trace t = trace_of({job(0).at_h(1.0)});
  EXPECT_DOUBLE_EQ(t.offered_load(8), 0.0);
}

OfferedLoad fold(const Trace& t) {
  OfferedLoad load;
  for (const Job& j : t.jobs()) load.add(j);
  return load;
}

TEST(OfferedLoad, ScaleToLandsOnTheTargetWithTheEpochAtZero) {
  // 2 jobs x 4 nodes x 1 h over a 4 h span on 8 nodes: load 0.25. Halving
  // the gaps doubles it, and the first job moves to t = 0.
  const Trace t = trace_of({job(0).at_h(4.0).nodes(4).runtime_h(1.0),
                            job(1).at_h(8.0).nodes(4).runtime_h(1.0)});
  const OfferedLoad load = fold(t);
  EXPECT_DOUBLE_EQ(load.against(8), t.offered_load(8));
  const auto scale = load.scale_to(0.5, 8);
  ASSERT_TRUE(scale.has_value());
  EXPECT_DOUBLE_EQ(scale->factor, 0.5);
  EXPECT_EQ((*scale)(t.job(0).submit), SimTime{});
  EXPECT_DOUBLE_EQ((*scale)(t.job(1).submit).hours(), 2.0);
}

TEST(OfferedLoad, NoMeasurableLoadLeavesSubmitsAlone) {
  EXPECT_FALSE(fold(trace_of({job(0).at_h(3.0)})).scale_to(1.0, 8));
  EXPECT_FALSE(OfferedLoad{}.scale_to(1.0, 8));
}

TEST(OfferedLoad, RejectsTargetsThatAreNotFiniteAndPositive) {
  const OfferedLoad load =
      fold(trace_of({job(0).at_h(0.0), job(1).at_h(1.0)}));
  for (const double target : {std::nan(""), double{INFINITY}, 0.0, -1.0}) {
    SCOPED_TRACE(target);
    try {
      (void)load.scale_to(target, 8);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("load ", 0), 0u) << e.what();
    }
  }
  // Nothing to scale does not excuse a bad target.
  EXPECT_THROW((void)OfferedLoad{}.scale_to(std::nan(""), 8),
               std::invalid_argument);
}

TEST(OfferedLoad, RejectsScaledSpansPastTheClock) {
  // 2 jobs x 1 node x 1 h over a 1 h span on 8 nodes: load 0.25. A target
  // of 1e-12 stretches the span by 2.5e11 to 9e20 us, past half of
  // kTimeInfinity (~1.15e18 us); 1e-5 stretches it to 9e13 us and fits.
  const OfferedLoad load =
      fold(trace_of({job(0).at_h(0.0).nodes(1).runtime_h(1.0),
                     job(1).at_h(1.0).nodes(1).runtime_h(1.0)}));
  EXPECT_THROW((void)load.scale_to(1e-12, 8), std::invalid_argument);
  const auto fits = load.scale_to(1e-5, 8);
  ASSERT_TRUE(fits.has_value());
  EXPECT_DOUBLE_EQ((*fits)(hours(1)).hours(), 25000.0);
}

TEST(Trace, JobAccessorOutOfRangeAborts) {
  Trace t = trace_of({job(0)});
  EXPECT_DEATH((void)t.job(5), "out of range");
}

/// The field of the InputError Trace::make throws for `bad`, or "" when it
/// accepts the job.
std::string rejected_field(const Job& bad) {
  try {
    (void)trace_of({bad});
  } catch (const InputError& e) {
    return e.field();
  }
  return "";
}

TEST(Trace, RejectsNonPositiveNodes) {
  Job bad = job(0);
  bad.nodes = 0;
  EXPECT_EQ(rejected_field(bad), "nodes");
}

TEST(Trace, RejectsWalltimeBelowRuntime) {
  Job bad = job(0).runtime_h(2.0);
  bad.walltime = hours(1);
  EXPECT_EQ(rejected_field(bad), "walltime");
}

TEST(Trace, TotalMemAggregates) {
  const Job j = job(0).nodes(4).mem_gib(32);
  EXPECT_EQ(j.total_mem(), gib(std::int64_t{128}));
}

TEST(Trace, NodeSecondsHelpers) {
  const Job j =
      job(0).nodes(2).runtime_h(1.0).walltime_h(2.0);
  EXPECT_DOUBLE_EQ(j.used_node_seconds(), 2 * 3600.0);
}

}  // namespace
}  // namespace dmsched
