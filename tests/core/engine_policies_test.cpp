// Engine-level behaviour of queue-ordering policies and engine options —
// the knobs the experiment configs expose.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/factory.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::tiny_cluster;
using testing::trace_of;

RunMetrics run(const Trace& trace, EngineOptions options,
               SchedulerKind kind = SchedulerKind::kFcfs) {
  options.audit_cluster = true;
  EagerTraceSource source(trace);
  SchedulingSimulation sim(tiny_cluster(), source, make_scheduler(kind),
                           options);
  return sim.run();
}

// Machine busy until 1 h; two waiting jobs with contrasting shapes.
Trace contention_trace() {
  return trace_of({job(0).at_h(0.0).nodes(16).runtime_h(1.0),
                   // submitted first, long
                   job(1).at_h(0.1).nodes(16).runtime_h(4.0).walltime_h(8.0),
                   // submitted second, short
                   job(2).at_h(0.2).nodes(16).runtime_h(1.0).walltime_h(1.0)});
}

TEST(EnginePolicies, FcfsOrderRunsEarlierSubmissionFirst) {
  EngineOptions options;
  options.queue_order = QueueOrder::kFcfs;
  const RunMetrics m = run(contention_trace(), options);
  EXPECT_LT(m.jobs[1].start, m.jobs[2].start);
}

TEST(EnginePolicies, ShortestFirstRunsShortJobFirst) {
  EngineOptions options;
  options.queue_order = QueueOrder::kShortestFirst;
  const RunMetrics m = run(contention_trace(), options);
  EXPECT_LT(m.jobs[2].start, m.jobs[1].start);
}

TEST(EnginePolicies, LargestFirstPrefersWideJobs) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(16).runtime_h(1.0),
                            job(1).at_h(0.1).nodes(2).runtime_h(1.0),
                            job(2).at_h(0.2).nodes(14).runtime_h(1.0)});
  EngineOptions options;
  options.queue_order = QueueOrder::kLargestFirst;
  const RunMetrics m = run(t, options);
  // at 1 h the 14-node job is head; the 2-node job starts beside it
  EXPECT_DOUBLE_EQ(m.jobs[2].start.hours(), 1.0);
  EXPECT_DOUBLE_EQ(m.jobs[1].start.hours(), 1.0);
}

TEST(EnginePolicies, WfpEventuallyPrefersStarvedLargeJob) {
  // A large job that waited long outranks a fresh small one under WFP.
  const Trace t = trace_of(
      {job(0).at_h(0.0).nodes(16).runtime_h(10.0).walltime_h(10.0),
       job(1).at_h(0.5).nodes(12).runtime_h(1.0).walltime_h(1.0),
       job(2).at_h(9.9).nodes(12).runtime_h(1.0).walltime_h(1.0)});
  EngineOptions options;
  options.queue_order = QueueOrder::kWfp;
  const RunMetrics m = run(t, options);
  // job1 waited ~9.5 h of its 1 h walltime; job2 just arrived
  EXPECT_LT(m.jobs[1].start, m.jobs[2].start);
}

TEST(EnginePolicies, QueueOrderChangesScheduleDeterministically) {
  const Trace t = contention_trace();
  EngineOptions fcfs;
  fcfs.queue_order = QueueOrder::kFcfs;
  EngineOptions sjf;
  sjf.queue_order = QueueOrder::kShortestFirst;
  const RunMetrics a1 = run(t, fcfs);
  const RunMetrics a2 = run(t, fcfs);
  const RunMetrics b = run(t, sjf);
  EXPECT_EQ(a1.jobs[1].start.usec(), a2.jobs[1].start.usec());
  EXPECT_NE(a1.jobs[1].start.usec(), b.jobs[1].start.usec());
}

TEST(EnginePolicies, KilledJobFreesResourcesEarly) {
  // Dilated job killed at its 1 h walltime; the follower starts at 1 h, not
  // at the dilated 1.06 h completion.
  EngineOptions options;
  options.kill_on_walltime = true;
  const Trace t = trace_of(
      {job(0).at_h(0.0).nodes(16).mem_gib(80).runtime_h(1.0).walltime_h(1.0),
       job(1).at_h(0.0).nodes(16).mem_gib(8).runtime_h(1.0)});
  EagerTraceSource source(t);
  SchedulingSimulation sim(tiny_cluster(gib(std::int64_t{512})), source,
                           make_scheduler(SchedulerKind::kFcfs), options);
  const RunMetrics m = sim.run();
  EXPECT_EQ(m.jobs[0].fate, JobFate::kKilled);
  EXPECT_DOUBLE_EQ(m.jobs[1].start.hours(), 1.0);
}

TEST(EnginePolicies, KillCountsExcludedFromCompleted) {
  EngineOptions options;
  options.kill_on_walltime = true;
  const Trace t = trace_of(
      {job(0).nodes(2).mem_gib(80).runtime_h(1.0).walltime_h(1.0)});
  EagerTraceSource source(t);
  SchedulingSimulation sim(tiny_cluster(gib(std::int64_t{64})), source,
                           make_scheduler(SchedulerKind::kFcfs), options);
  const RunMetrics m = sim.run();
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.killed, 1u);
}

TEST(EnginePolicies, NoSamplingMeansEmptySeries) {
  const RunMetrics m = run(contention_trace(), EngineOptions{});
  EXPECT_TRUE(m.series.empty());
}

TEST(EnginePolicies, PlacementSelectionReachesAllocations) {
  // PackRacks on an 8-node job must land in exactly 2 racks of 4.
  const Trace t = trace_of({job(0).nodes(8).mem_gib(8).runtime_h(1.0)});
  EngineOptions options;
  options.placement.selection = NodeSelection::kPackRacks;
  options.audit_cluster = true;
  EagerTraceSource source(t);
  SchedulingSimulation sim(tiny_cluster(), source,
                           make_scheduler(SchedulerKind::kFcfs), options);
  const RunMetrics m = sim.run();
  EXPECT_EQ(m.completed, 1u);
}

TEST(EnginePolicies, LabelsIncludeSchedulerAndMachine) {
  const Trace trace = trace_of({job(0)});  // must outlive the simulation
  EagerTraceSource source(trace);
  SchedulingSimulation sim(tiny_cluster(), source,
                           make_scheduler(SchedulerKind::kEasy), {});
  const RunMetrics m = sim.run();
  EXPECT_EQ(m.label, "easy/tiny");
}

}  // namespace
}  // namespace dmsched
