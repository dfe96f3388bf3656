// Observability passivity arm of the golden suite.
//
// The obs/ contract (src/obs/trace_sink.hpp) is that an attached sink is
// invisible to the simulation: it injects no events and perturbs no
// decision. This suite turns that into an enforced invariant:
//
//  1. every non-infrastructure scenario in the library, run with a
//     RecordingSink at full detail plus a CounterRegistry, produces
//     RunMetrics byte-identical to the no-sink run;
//  2. the same holds under sweep parallelism across thread counts
//     (one sink per config — sinks are single-run, not shared);
//  3. the recorded stream itself is consistent with the metrics it rode
//     along with (every start has a finish, counts match fates);
//  4. a sink that throws aborts deterministically instead of unwinding a
//     half-mutated simulation.
#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "obs/counters.hpp"
#include "obs/recording_sink.hpp"

namespace dmsched {
namespace {

/// Strictest comparison: every per-job field and every aggregate must be
/// bit-identical (same idiom as tests/golden/golden_metrics_test.cpp).
void expect_byte_identical(const RunMetrics& a, const RunMetrics& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "job " << i);
    EXPECT_EQ(a.jobs[i].fate, b.jobs[i].fate);
    EXPECT_EQ(a.jobs[i].submit.usec(), b.jobs[i].submit.usec());
    EXPECT_EQ(a.jobs[i].start.usec(), b.jobs[i].start.usec());
    EXPECT_EQ(a.jobs[i].end.usec(), b.jobs[i].end.usec());
    EXPECT_EQ(a.jobs[i].dilation, b.jobs[i].dilation);
    EXPECT_EQ(a.jobs[i].far_rack, b.jobs[i].far_rack);
    EXPECT_EQ(a.jobs[i].far_global, b.jobs[i].far_global);
  }
  EXPECT_EQ(a.makespan.usec(), b.makespan.usec());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.node_utilization, b.node_utilization);
  EXPECT_EQ(a.rack_pool_utilization, b.rack_pool_utilization);
  EXPECT_EQ(a.rack_pool_peak, b.rack_pool_peak);
  EXPECT_EQ(a.global_pool_utilization, b.global_pool_utilization);
  EXPECT_EQ(a.global_pool_peak, b.global_pool_peak);
  EXPECT_EQ(a.mean_wait_hours, b.mean_wait_hours);
  EXPECT_EQ(a.p95_wait_hours, b.p95_wait_hours);
  EXPECT_EQ(a.max_wait_hours, b.max_wait_hours);
  EXPECT_EQ(a.mean_bsld, b.mean_bsld);
  EXPECT_EQ(a.p95_bsld, b.p95_bsld);
  EXPECT_EQ(a.mean_dilation, b.mean_dilation);
  EXPECT_EQ(a.frac_jobs_far, b.frac_jobs_far);
  EXPECT_EQ(a.far_gib_hours, b.far_gib_hours);
  EXPECT_EQ(a.jobs_per_hour, b.jobs_per_hour);
}

// Every pinned (non-infrastructure) scenario: a recording sink at full
// detail plus a counter registry must not move a single bit of the metrics.
// The recorded stream is also checked against the metrics it shadowed.
TEST(TracePassivityTest, EveryPinnedScenarioIsUnperturbedBySink) {
  for (const std::string& name : scenario_names()) {
    if (scenario_info(name).infrastructure) continue;
    SCOPED_TRACE(name);
    const Scenario scenario = make_scenario(name);
    const ExperimentConfig base =
        scenario_experiment(scenario, SchedulerKind::kMemAwareEasy);
    const RunMetrics plain = run_experiment(base, scenario.trace);

    obs::RecordingSink sink;
    obs::CounterRegistry registry;
    ExperimentConfig traced = base;
    traced.engine.sink = &sink;
    traced.engine.trace_detail = obs::TraceDetail::kFull;
    traced.engine.counters = &registry;
    const RunMetrics observed = run_experiment(traced, scenario.trace);

    expect_byte_identical(plain, observed);

    // The stream the sink saw must be consistent with those metrics.
    EXPECT_TRUE(sink.begun);
    EXPECT_TRUE(sink.ended);
    EXPECT_EQ(sink.makespan.usec(), observed.makespan.usec());
    EXPECT_EQ(sink.started.size(), sink.finished.size());
    EXPECT_EQ(sink.finished.size(), observed.completed + observed.killed);
    EXPECT_EQ(sink.rejected.size(), observed.rejected);
    EXPECT_EQ(sink.queued.size(), scenario.trace.size() - observed.rejected);
    EXPECT_FALSE(sink.passes.empty());
    // Counters are deterministic end-of-run totals (and already registered:
    // reading them creates nothing).
    const std::size_t registered = registry.counter_count();
    EXPECT_EQ(registry.counter("jobs_completed").value, observed.completed);
    EXPECT_EQ(registry.counter("jobs_rejected").value, observed.rejected);
    EXPECT_EQ(registry.counter("sched_passes").value, sink.passes.size());
    EXPECT_EQ(registry.counter_count(), registered);
  }
}

// Sweep parallelism must not interact with attached sinks: one recording
// sink per config (sinks are single-run state), every thread count
// byte-identical to the no-sink serial sweep.
TEST(TracePassivityTest, SinksAreUnperturbedAcrossSweepThreadCounts) {
  const Scenario scenario = make_scenario("golden-baseline");
  const SchedulerKind kinds[] = {
      SchedulerKind::kFcfs, SchedulerKind::kEasy,
      SchedulerKind::kConservative, SchedulerKind::kMemAwareEasy,
      SchedulerKind::kAdaptive};

  std::vector<ExperimentConfig> plain_configs;
  for (const SchedulerKind kind : kinds)
    plain_configs.push_back(scenario_experiment(scenario, kind));
  const std::vector<RunMetrics> plain =
      run_sweep_on_trace(plain_configs, scenario.trace, {.threads = 1});

  for (const unsigned threads : {1u, 3u, 0u}) {  // 0 = hardware concurrency
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    std::deque<obs::RecordingSink> sinks;  // stable addresses
    std::vector<ExperimentConfig> traced_configs;
    for (const SchedulerKind kind : kinds) {
      ExperimentConfig c = scenario_experiment(scenario, kind);
      c.engine.sink = &sinks.emplace_back();
      c.engine.trace_detail = obs::TraceDetail::kFull;
      traced_configs.push_back(c);
    }
    const std::vector<RunMetrics> traced =
        run_sweep_on_trace(traced_configs, scenario.trace,
                           {.threads = threads});
    ASSERT_EQ(traced.size(), plain.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "config " << i);
      expect_byte_identical(plain[i], traced[i]);
      EXPECT_TRUE(sinks[i].ended);
      EXPECT_EQ(sinks[i].finished.size(),
                traced[i].completed + traced[i].killed);
    }
  }
}

// Detail levels below kFull must be equally invisible.
TEST(TracePassivityTest, EveryDetailLevelIsPassive) {
  const Scenario scenario = make_scenario("golden-baseline");
  const ExperimentConfig base =
      scenario_experiment(scenario, SchedulerKind::kEasy);
  const RunMetrics plain = run_experiment(base, scenario.trace);
  for (const obs::TraceDetail detail :
       {obs::TraceDetail::kLifecycle, obs::TraceDetail::kSched,
        obs::TraceDetail::kFull}) {
    SCOPED_TRACE(to_string(detail));
    obs::RecordingSink sink;
    ExperimentConfig traced = base;
    traced.engine.sink = &sink;
    traced.engine.trace_detail = detail;
    expect_byte_identical(plain, run_experiment(traced, scenario.trace));
    EXPECT_EQ(sink.passes.empty(), detail == obs::TraceDetail::kLifecycle);
    EXPECT_EQ(sink.gauges.empty(), detail != obs::TraceDetail::kFull);
  }
}

// A throwing sink is a programming error; the engine must abort
// deterministically rather than unwind a half-mutated simulation.
class ThrowingSink final : public obs::TraceSink {
 public:
  void on_pass(const obs::PassSpan&) override {
    throw std::runtime_error("observer bug");
  }
};

TEST(TracePassivityDeathTest, ThrowingSinkAbortsDeterministically) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Scenario scenario = make_scenario("golden-baseline", {.jobs = 40});
  ThrowingSink sink;
  ExperimentConfig config =
      scenario_experiment(scenario, SchedulerKind::kEasy);
  config.engine.sink = &sink;
  config.engine.trace_detail = obs::TraceDetail::kSched;
  EXPECT_DEATH((void)run_experiment(config, scenario.trace),
               "trace sink threw mid-run");
}

}  // namespace
}  // namespace dmsched
