#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::tiny_cluster;
using testing::trace_of;

RunMetrics run(const ClusterConfig& cfg, const Trace& trace,
               SchedulerKind kind = SchedulerKind::kFcfs,
               EngineOptions options = {}) {
  options.audit_cluster = true;
  SchedulingSimulation sim(cfg, trace, make_scheduler(kind), options);
  return sim.run();
}

TEST(Engine, SingleJobLifecycle) {
  const Trace t = trace_of({job(0).at_h(1.0).nodes(4).runtime_h(2.0)});
  const RunMetrics m = run(tiny_cluster(), t);
  ASSERT_EQ(m.jobs.size(), 1u);
  const JobOutcome& o = m.jobs[0];
  EXPECT_EQ(o.fate, JobFate::kCompleted);
  EXPECT_DOUBLE_EQ(o.start.hours(), 1.0);   // starts immediately
  EXPECT_DOUBLE_EQ(o.end.hours(), 3.0);
  EXPECT_DOUBLE_EQ(o.wait().seconds(), 0.0);
  EXPECT_DOUBLE_EQ(o.dilation, 1.0);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_DOUBLE_EQ(m.makespan.hours(), 3.0);
}

TEST(Engine, QueuedJobWaitsForNodes) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(16).runtime_h(2.0),
                            job(1).at_h(1.0).nodes(16).runtime_h(1.0)});
  const RunMetrics m = run(tiny_cluster(), t);
  EXPECT_DOUBLE_EQ(m.jobs[1].start.hours(), 2.0);
  EXPECT_DOUBLE_EQ(m.jobs[1].wait().hours(), 1.0);
}

TEST(Engine, DeficitJobDilates) {
  // mem 80 on 64-GiB nodes: 16/80 = 20% far; beta 0.3 -> dilation 1.06
  const Trace t = trace_of({job(0).nodes(2).mem_gib(80).runtime_h(1.0)});
  const RunMetrics m = run(tiny_cluster(gib(std::int64_t{64})), t);
  ASSERT_EQ(m.jobs.size(), 1u);
  EXPECT_NEAR(m.jobs[0].dilation, 1.06, 1e-9);
  EXPECT_NEAR(m.jobs[0].end.hours(), 1.06, 1e-6);
  EXPECT_EQ(m.jobs[0].far_rack, gib(std::int64_t{32}));
  EXPECT_TRUE(m.jobs[0].far_global.is_zero());
  EXPECT_DOUBLE_EQ(m.frac_jobs_far, 1.0);
}

TEST(Engine, UnrunnableJobRejected) {
  // no pools: a 100-GiB-per-node job cannot ever run
  const Trace t = trace_of({job(0).mem_gib(100), job(1).mem_gib(8)});
  const RunMetrics m = run(tiny_cluster(), t);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.jobs[0].fate, JobFate::kRejected);
  EXPECT_EQ(m.jobs[1].fate, JobFate::kCompleted);
}

TEST(Engine, SamePoolJobRunnableWithPool) {
  const Trace t = trace_of({job(0).mem_gib(100)});
  const RunMetrics m = run(tiny_cluster(gib(std::int64_t{64})), t);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(Engine, KillOnWalltimeTruncatesDilatedJob) {
  // runtime 1h == walltime; dilation 1.06 would overrun -> killed at 1 h
  EngineOptions options;
  options.kill_on_walltime = true;
  const Trace t = trace_of(
      {job(0).nodes(2).mem_gib(80).runtime_h(1.0).walltime_h(1.0)});
  const RunMetrics m =
      run(tiny_cluster(gib(std::int64_t{64})), t, SchedulerKind::kFcfs,
          options);
  EXPECT_EQ(m.killed, 1u);
  EXPECT_EQ(m.jobs[0].fate, JobFate::kKilled);
  EXPECT_DOUBLE_EQ(m.jobs[0].end.hours(), 1.0);
}

TEST(Engine, NoKillWithoutFlagEvenWhenOverrunning) {
  const Trace t = trace_of(
      {job(0).nodes(2).mem_gib(80).runtime_h(1.0).walltime_h(1.0)});
  const RunMetrics m = run(tiny_cluster(gib(std::int64_t{64})), t);
  EXPECT_EQ(m.killed, 0u);
  EXPECT_NEAR(m.jobs[0].end.hours(), 1.06, 1e-6);
}

TEST(Engine, UtilizationOfBackToBackFullMachine) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(16).runtime_h(2.0),
                            job(1).at_h(0.0).nodes(16).runtime_h(2.0)});
  const RunMetrics m = run(tiny_cluster(), t);
  EXPECT_DOUBLE_EQ(m.makespan.hours(), 4.0);
  EXPECT_NEAR(m.node_utilization, 1.0, 1e-9);
}

TEST(Engine, PoolUtilizationTracked) {
  const Trace t = trace_of({job(0).nodes(4).mem_gib(96).runtime_h(1.0)});
  // 4 racks × 64 GiB pool = 256 capacity; job draws 4 × 32 = 128 (50%)
  const RunMetrics m = run(tiny_cluster(gib(std::int64_t{64})), t);
  EXPECT_NEAR(m.rack_pool_peak, 0.5, 1e-9);
  EXPECT_NEAR(m.rack_pool_utilization, 0.5, 1e-9);  // busy the whole run
}

TEST(Engine, SeriesSamplingProducesSamples) {
  EngineOptions options;
  options.sample_interval = minutes(30);
  const Trace t = trace_of({job(0).nodes(8).runtime_h(2.0),
                            job(1).at_h(0.5).nodes(8).runtime_h(2.0)});
  const RunMetrics m =
      run(tiny_cluster(), t, SchedulerKind::kFcfs, options);
  ASSERT_GE(m.series.size(), 4u);
  // samples fire before the scheduling pass at the same instant: the t=0
  // sample sees an idle machine, the t=30min one sees job 0 only (job 1 is
  // submitted at that instant but not yet scheduled), t=60min sees both.
  EXPECT_EQ(m.series[0].busy_nodes, 0);
  EXPECT_EQ(m.series[1].busy_nodes, 8);
  EXPECT_EQ(m.series[2].busy_nodes, 16);
  bool saw_full = false;
  for (const auto& s : m.series) saw_full |= (s.busy_nodes == 16);
  EXPECT_TRUE(saw_full);
}

TEST(Engine, BoundedSlowdownComputation) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(16).runtime_h(1.0),
                            job(1).at_h(0.0).nodes(16).runtime_h(1.0)});
  const RunMetrics m = run(tiny_cluster(), t);
  // second job: wait 1 h, run 1 h -> bsld 2
  EXPECT_DOUBLE_EQ(m.jobs[1].bounded_slowdown(), 2.0);
  EXPECT_DOUBLE_EQ(m.mean_bsld, 1.5);
}

TEST(Engine, EmptyTraceProducesEmptyMetrics) {
  const RunMetrics m = run(tiny_cluster(), Trace{});
  EXPECT_EQ(m.jobs.size(), 0u);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.makespan, SimTime{});
}

TEST(Engine, RunIsSingleShot) {
  const Trace t = trace_of({job(0)});
  SchedulingSimulation sim(tiny_cluster(), t,
                           make_scheduler(SchedulerKind::kFcfs), {});
  (void)sim.run();
  EXPECT_DEATH((void)sim.run(), "single-shot");
}

TEST(Engine, TakeFromAllocationGroupsByRack) {
  const ClusterConfig cfg = tiny_cluster(gib(std::int64_t{100}),
                                         gib(std::int64_t{50}));
  Allocation a;
  a.job = 1;
  a.nodes = {0, 1, 4};  // racks 0 and 1
  a.local_per_node = gib(std::int64_t{64});
  a.far_per_node = gib(std::int64_t{10});
  a.draws = {{0, gib(std::int64_t{20})},
             {1, gib(std::int64_t{5})},
             {kGlobalPoolRack, gib(std::int64_t{5})}};
  const TakePlan take = take_from(a, cfg);
  EXPECT_EQ(take.node_total(), 3);
  ASSERT_EQ(take.takes.size(), 2u);
  EXPECT_EQ(take.takes[0].rack, 0);
  EXPECT_EQ(take.takes[0].nodes, 2);
  EXPECT_EQ(take.takes[0].rack_pool_bytes, gib(std::int64_t{20}));
  EXPECT_EQ(take.takes[1].rack, 1);
  EXPECT_EQ(take.takes[1].nodes, 1);
  EXPECT_EQ(take.rack_pool_total(), gib(std::int64_t{25}));
  EXPECT_EQ(take.global_total(), gib(std::int64_t{5}));
}

TEST(Engine, WalltimeBoundGovernsExpectedEndNotActual) {
  // job runs 1 h but requested 3 h: a second full-width job still starts at
  // the ACTUAL completion (1 h), not the walltime bound.
  const Trace t = trace_of(
      {job(0).at_h(0.0).nodes(16).runtime_h(1.0).walltime_h(3.0),
       job(1).at_h(0.0).nodes(16).runtime_h(1.0).walltime_h(3.0)});
  const RunMetrics m = run(tiny_cluster(), t, SchedulerKind::kEasy);
  EXPECT_DOUBLE_EQ(m.jobs[1].start.hours(), 1.0);
}

}  // namespace
}  // namespace dmsched
