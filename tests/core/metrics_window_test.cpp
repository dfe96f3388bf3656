// Checkpointed metrics windows: alignment to sim-time multiples of the
// interval, half-open boundary attribution, the trailing partial window,
// and conservation — summing the windows reproduces the end-of-run
// aggregates for every additive metric. Windowing is passive: turning it
// on must not perturb anything else.
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/factory.hpp"
#include "testing/builders.hpp"
#include "workload/scenarios.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::machine;
using testing::trace_of;

RunMetrics run_windowed(const ClusterConfig& cluster, const Trace& trace,
                        SimTime interval) {
  EngineOptions opts;
  opts.checkpoint_interval = interval;
  EagerTraceSource source(trace);
  SchedulingSimulation sim(cluster, source,
                           make_scheduler(SchedulerKind::kEasy, {}), opts);
  return sim.run();
}

TEST(MetricsWindows, BoundariesAlignToIntervalMultiples) {
  // Three jobs spanning 3.5 h on 4 nodes; hourly windows.
  const Trace t = trace_of({job(0).at_h(0.0).nodes(2).runtime_h(1.0),
                            job(1).at_h(0.5).nodes(2).runtime_h(1.0),
                            job(2).at_h(3.0).nodes(4).runtime_h(0.5)});
  const RunMetrics m = run_windowed(machine(4, 64.0), t, hours(1));
  ASSERT_EQ(m.windows.size(), 4u);  // [0,1) [1,2) [2,3) and the partial
  for (std::size_t i = 0; i < m.windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(m.windows[i].start.usec(),
              hours(static_cast<std::int64_t>(i)).usec());
    if (i + 1 < m.windows.size()) {
      // Contiguous: each window ends where the next begins.
      EXPECT_EQ(m.windows[i].end.usec(), m.windows[i + 1].start.usec());
      EXPECT_EQ(m.windows[i].width_seconds(), 3600.0);
    }
  }
  // The trailing partial window ends at the last completion, not at the
  // next interval boundary.
  const MetricsWindow& last = m.windows.back();
  EXPECT_EQ(last.end.usec(), hours(3).usec() + minutes(30).usec());
  EXPECT_EQ(last.width_seconds(), 1800.0);
}

TEST(MetricsWindows, BoundaryEventsAttributeToTheLaterWindow) {
  // Windows are half-open [k·w, (k+1)·w): a submission at exactly t = 1 h
  // belongs to window 1, not window 0.
  const Trace t = trace_of({job(0).at_h(0.0).nodes(1).runtime_h(0.25),
                            job(1).at_h(1.0).nodes(1).runtime_h(0.25)});
  const RunMetrics m = run_windowed(machine(4, 64.0), t, hours(1));
  ASSERT_GE(m.windows.size(), 2u);
  EXPECT_EQ(m.windows[0].jobs_submitted, 1u);
  EXPECT_EQ(m.windows[1].jobs_submitted, 1u);
  EXPECT_EQ(m.windows[1].start.usec(), hours(1).usec());
}

TEST(MetricsWindows, AdditiveMetricsSumToTheRunAggregates) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(2).runtime_h(1.0),
                            job(1).at_h(0.5).nodes(2).runtime_h(1.0),
                            job(2).at_h(3.0).nodes(4).runtime_h(0.5)});
  const ClusterConfig cluster = machine(4, 64.0);
  const RunMetrics m = run_windowed(cluster, t, hours(1));

  std::size_t submitted = 0, started = 0, finished = 0, rejected = 0;
  double busy_node_seconds = 0.0;
  for (const MetricsWindow& w : m.windows) {
    submitted += w.jobs_submitted;
    started += w.jobs_started;
    finished += w.jobs_finished;
    rejected += w.jobs_rejected;
    busy_node_seconds += w.busy_node_seconds;
  }
  EXPECT_EQ(submitted, t.size());
  EXPECT_EQ(started, 3u);
  EXPECT_EQ(finished, m.completed + m.killed);
  EXPECT_EQ(rejected, m.rejected);
  // Σ busy node-seconds across windows == utilization × nodes × makespan.
  const double expected = m.node_utilization *
                          static_cast<double>(cluster.total_nodes) *
                          m.makespan.seconds();
  EXPECT_NEAR(busy_node_seconds, expected, 1e-6 * expected + 1e-9);
  // And it equals the direct sum of (nodes × runtime): 2+2 node-hours for
  // the first two jobs, 2 for the wide one.
  EXPECT_NEAR(busy_node_seconds, 6.0 * 3600.0, 1e-6);
}

TEST(MetricsWindows, ConservationHoldsOnALibraryScenario) {
  ScenarioParams p;
  p.jobs = 200;
  const Scenario s = make_scenario("memory-stressed", p);
  ExperimentConfig cfg = scenario_experiment(s, SchedulerKind::kMemAwareEasy);
  cfg.engine.checkpoint_interval = hours(2);
  const RunMetrics m = run_experiment(cfg, s.trace);
  ASSERT_FALSE(m.windows.empty());

  std::size_t submitted = 0, finished = 0, rejected = 0;
  double busy_node_seconds = 0.0;
  for (const MetricsWindow& w : m.windows) {
    submitted += w.jobs_submitted;
    finished += w.jobs_finished;
    rejected += w.jobs_rejected;
    busy_node_seconds += w.busy_node_seconds;
  }
  EXPECT_EQ(submitted, s.trace.size());
  EXPECT_EQ(finished, m.completed + m.killed);
  EXPECT_EQ(rejected, m.rejected);
  const double expected = m.node_utilization *
                          static_cast<double>(s.cluster.total_nodes) *
                          m.makespan.seconds();
  EXPECT_NEAR(busy_node_seconds, expected, 1e-6 * expected);
  // Windows tile the run: contiguous, aligned starts, no overlap.
  for (std::size_t i = 0; i + 1 < m.windows.size(); ++i) {
    EXPECT_EQ(m.windows[i].end.usec(), m.windows[i + 1].start.usec());
  }
}

TEST(MetricsWindows, DisabledIntervalEmitsNoWindows) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(1).runtime_h(1.0)});
  const RunMetrics m = run_windowed(machine(4, 64.0), t, SimTime{});
  EXPECT_TRUE(m.windows.empty());
}

TEST(MetricsWindows, WindowingIsPassive) {
  // Enabling checkpoints injects no events: every other metric is
  // byte-identical to the un-windowed run.
  ScenarioParams p;
  p.jobs = 150;
  const Scenario s = make_scenario("golden-baseline", p);
  ExperimentConfig cfg = scenario_experiment(s, SchedulerKind::kEasy);
  const RunMetrics plain = run_experiment(cfg, s.trace);
  cfg.engine.checkpoint_interval = minutes(45);
  const RunMetrics windowed = run_experiment(cfg, s.trace);
  ASSERT_EQ(plain.jobs.size(), windowed.jobs.size());
  for (std::size_t i = 0; i < plain.jobs.size(); ++i) {
    EXPECT_EQ(plain.jobs[i].start.usec(), windowed.jobs[i].start.usec());
    EXPECT_EQ(plain.jobs[i].end.usec(), windowed.jobs[i].end.usec());
    EXPECT_EQ(plain.jobs[i].dilation, windowed.jobs[i].dilation);
  }
  EXPECT_EQ(plain.makespan.usec(), windowed.makespan.usec());
  EXPECT_EQ(plain.node_utilization, windowed.node_utilization);
  EXPECT_EQ(plain.mean_bsld, windowed.mean_bsld);
  EXPECT_TRUE(plain.windows.empty());
  EXPECT_FALSE(windowed.windows.empty());

  // Sampling on top changes neither the jobs nor the windows.
  cfg.engine.sample_interval = minutes(20);
  const RunMetrics sampled = run_experiment(cfg, s.trace);
  ASSERT_EQ(plain.jobs.size(), sampled.jobs.size());
  for (std::size_t i = 0; i < plain.jobs.size(); ++i) {
    EXPECT_EQ(plain.jobs[i].start.usec(), sampled.jobs[i].start.usec());
    EXPECT_EQ(plain.jobs[i].end.usec(), sampled.jobs[i].end.usec());
  }
  EXPECT_EQ(plain.mean_bsld, sampled.mean_bsld);
  EXPECT_FALSE(sampled.series.empty());
  ASSERT_EQ(windowed.windows.size(), sampled.windows.size());
  for (std::size_t i = 0; i < windowed.windows.size(); ++i) {
    EXPECT_EQ(windowed.windows[i].busy_node_seconds,
              sampled.windows[i].busy_node_seconds);
    EXPECT_EQ(windowed.windows[i].queued_job_seconds,
              sampled.windows[i].queued_job_seconds);
    EXPECT_EQ(windowed.windows[i].jobs_started,
              sampled.windows[i].jobs_started);
  }
}

TEST(MetricsWindows, MeanHelpersHandleZeroWidth) {
  MetricsWindow w;
  EXPECT_EQ(w.mean_busy_nodes(), 0.0);
  EXPECT_EQ(w.mean_queued_jobs(), 0.0);
  w.start = SimTime{};
  w.end = seconds(std::int64_t{10});
  w.busy_node_seconds = 25.0;
  w.queued_job_seconds = 5.0;
  EXPECT_DOUBLE_EQ(w.mean_busy_nodes(), 2.5);
  EXPECT_DOUBLE_EQ(w.mean_queued_jobs(), 0.5);
}

}  // namespace
}  // namespace dmsched
