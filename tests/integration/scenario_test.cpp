// Golden-schedule scenarios: small hand-built traces with exact expected
// start times per scheduler, end-to-end through the real engine.
#include <gtest/gtest.h>

#include "cluster/system_config.hpp"
#include "core/engine.hpp"
#include "core/factory.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::tiny_cluster;
using testing::trace_of;

RunMetrics run(const ClusterConfig& cfg, const Trace& trace,
               SchedulerKind kind) {
  EngineOptions options;
  options.audit_cluster = true;
  EagerTraceSource source(trace);
  SchedulingSimulation sim(cfg, source, make_scheduler(kind), options);
  return sim.run();
}

double start_h(const RunMetrics& m, JobId id) {
  return m.jobs[id].start.hours();
}

// Scenario A (nodes only):
//   t=0: J0 12 nodes, 4 h (exact estimate)
//   t=0: J1 12 nodes, 2 h  — must wait for J0 (only 4 free)
//   t=0: J2 4 nodes, 2 h   — backfill candidate, ends at 2 h < 4 h
//   t=0: J3 4 nodes, 8 h   — would overlap J1's reservation on 12 nodes?
//                            no: extra = (4+12)-12 = 4 -> fits extra.
Trace scenario_a() {
  return trace_of({job(0).at_h(0.0).nodes(12).runtime_h(4.0).walltime_h(4.0),
                   job(1).at_h(0.0).nodes(12).runtime_h(2.0).walltime_h(2.0),
                   job(2).at_h(0.0).nodes(4).runtime_h(2.0).walltime_h(2.0),
                   job(3).at_h(0.0).nodes(4).runtime_h(8.0).walltime_h(8.0)});
}

TEST(ScenarioA, FcfsNeverBackfills) {
  const RunMetrics m = run(tiny_cluster(), scenario_a(), SchedulerKind::kFcfs);
  EXPECT_DOUBLE_EQ(start_h(m, 0), 0.0);
  EXPECT_DOUBLE_EQ(start_h(m, 1), 4.0);  // waits for J0
  EXPECT_DOUBLE_EQ(start_h(m, 2), 4.0);  // in-order start beside J1 (4 free)
  EXPECT_DOUBLE_EQ(start_h(m, 3), 6.0);  // machine full until J1/J2 finish
}

TEST(ScenarioA, EasyBackfillsBothSmallJobs) {
  const RunMetrics m = run(tiny_cluster(), scenario_a(), SchedulerKind::kEasy);
  EXPECT_DOUBLE_EQ(start_h(m, 0), 0.0);
  EXPECT_DOUBLE_EQ(start_h(m, 1), 4.0);  // reservation intact
  EXPECT_DOUBLE_EQ(start_h(m, 2), 0.0);  // ends before shadow
  // J3 cannot start at 0 (J2 holds the last 4 nodes) but backfills into the
  // extra-node budget as soon as J2 completes at 2 h.
  EXPECT_DOUBLE_EQ(start_h(m, 3), 2.0);
}

TEST(ScenarioA, MemAwareEasyMatchesEasyWithoutMemoryPressure) {
  const RunMetrics easy =
      run(tiny_cluster(), scenario_a(), SchedulerKind::kEasy);
  const RunMetrics mem =
      run(tiny_cluster(), scenario_a(), SchedulerKind::kMemAwareEasy);
  for (JobId i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(start_h(easy, i), start_h(mem, i)) << "job " << i;
  }
}

TEST(ScenarioA, ConservativeProtectsJ1) {
  const RunMetrics m =
      run(tiny_cluster(), scenario_a(), SchedulerKind::kConservative);
  EXPECT_DOUBLE_EQ(start_h(m, 0), 0.0);
  EXPECT_DOUBLE_EQ(start_h(m, 1), 4.0);
  EXPECT_DOUBLE_EQ(start_h(m, 2), 0.0);  // [0,2h) on the 4 free nodes
  // J2 claimed the only free nodes at t=0, so J3's window-fit lands at 2 h;
  // from there it coexists with J1's 12-node reservation (4 + 12 = 16).
  EXPECT_DOUBLE_EQ(start_h(m, 3), 2.0);
}

// Scenario B (memory pressure): single rack of 4 nodes, 64 GiB local,
// 32 GiB pool.
//   t=0: J0 1 node, mem 80 (16 pool), 2 h
//   t=0: J1 1 node, mem 96 (32 pool) — blocked on pool until J0 ends
//   t=0: J2 1 node, mem 80 (16 pool), 10 h — the pool-stealing candidate
ClusterConfig one_rack() {
  return custom_config(4, 4, gib(std::int64_t{64}), gib(std::int64_t{32}),
                       Bytes{0});
}

Trace scenario_b() {
  return trace_of(
      {job(0).at_h(0.0).nodes(1).mem_gib(80).runtime_h(2.0).walltime_h(2.0),
       job(1).at_h(0.0).nodes(1).mem_gib(96).runtime_h(1.0).walltime_h(1.0),
       job(2).at_h(0.0).nodes(1).mem_gib(80).runtime_h(10.0)
           .walltime_h(10.0)});
}

TEST(ScenarioB, EasyStarvesThePoolBlockedHead) {
  const RunMetrics m = run(one_rack(), scenario_b(), SchedulerKind::kEasy);
  // J2 backfills at t=0 (node-only shadow sees free nodes), draining the
  // pool; J1 cannot start until J2 finishes at 10h × 1.06.
  EXPECT_DOUBLE_EQ(start_h(m, 2), 0.0);
  EXPECT_GT(start_h(m, 1), 10.0);
}

TEST(ScenarioB, MemAwareEasyProtectsTheHead) {
  const RunMetrics m =
      run(one_rack(), scenario_b(), SchedulerKind::kMemAwareEasy);
  // J0's walltime bound: 2 h × 1.06 = 2.12 h; the head starts when the
  // pool actually frees (J0's true end, same value here).
  EXPECT_NEAR(start_h(m, 1), 2.12, 1e-6);
  // J2 is NOT backfilled at 0 (it would delay the head); it starts when
  // the head no longer needs its bytes — i.e. right after the head starts
  // and the pool has 16 GiB free again? The head takes all 32 GiB, so J2
  // waits for the head's completion bound.
  EXPECT_GT(start_h(m, 2), 2.0);
}

TEST(ScenarioB, DilationAppearsInMetrics) {
  const RunMetrics m =
      run(one_rack(), scenario_b(), SchedulerKind::kMemAwareEasy);
  EXPECT_NEAR(m.jobs[0].dilation, 1.0 + 0.3 * (16.0 / 80.0), 1e-9);
  EXPECT_NEAR(m.jobs[1].dilation, 1.0 + 0.3 * (32.0 / 96.0), 1e-9);
  EXPECT_DOUBLE_EQ(m.frac_jobs_far, 1.0);
}

// Scenario C: walltime overestimates enable earlier-than-reserved starts.
Trace scenario_c() {
  return trace_of(
      {job(0).at_h(0.0).nodes(16).runtime_h(1.0).walltime_h(4.0),
       job(1).at_h(0.0).nodes(16).runtime_h(1.0).walltime_h(1.0)});
}

TEST(ScenarioC, CompletionTriggersImmediateReschedule) {
  for (const auto kind :
       {SchedulerKind::kFcfs, SchedulerKind::kEasy,
        SchedulerKind::kConservative, SchedulerKind::kMemAwareEasy}) {
    const RunMetrics m = run(tiny_cluster(), scenario_c(), kind);
    EXPECT_DOUBLE_EQ(start_h(m, 1), 1.0) << to_string(kind);
  }
}

// Scenario D: rejected wide job must not wedge the queue behind it.
TEST(ScenarioD, UnrunnableJobDoesNotBlockQueue) {
  const Trace t = trace_of(
      {job(0).at_h(0.0).nodes(32).runtime_h(1.0),   // wider than machine
       job(1).at_h(0.0).nodes(4).runtime_h(1.0)});
  for (const auto kind : {SchedulerKind::kFcfs, SchedulerKind::kEasy,
                          SchedulerKind::kMemAwareEasy}) {
    const RunMetrics m = run(tiny_cluster(), t, kind);
    EXPECT_EQ(m.jobs[0].fate, JobFate::kRejected) << to_string(kind);
    EXPECT_DOUBLE_EQ(start_h(m, 1), 0.0) << to_string(kind);
  }
}

}  // namespace
}  // namespace dmsched
