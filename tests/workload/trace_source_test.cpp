// Differential harness for streaming trace ingestion: the same workload
// pulled with every submission pre-pushed (look-ahead 0, the eager arm) and
// through a bounded look-ahead window must produce byte-identical
// RunMetrics — at every window size, under every scheduler — plus identical
// semantic event digests. This is the proof obligation behind
// EngineOptions::submit_lookahead (see src/README.md for the event-order
// argument the tests pin down).
#include "workload/trace_source.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/factory.hpp"
#include "testing/builders.hpp"
#include "testing/trace_io.hpp"
#include "workload/scenarios.hpp"

namespace dmsched {
namespace {

// --- byte-identical comparison ---------------------------------------------

// EXPECT_EQ on doubles is deliberate: the contract is bit-reproducibility,
// not tolerance.
void expect_outcomes_equal(const std::vector<JobOutcome>& a,
                           const std::vector<JobOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].fate, b[i].fate);
    EXPECT_EQ(a[i].submit.usec(), b[i].submit.usec());
    EXPECT_EQ(a[i].start.usec(), b[i].start.usec());
    EXPECT_EQ(a[i].end.usec(), b[i].end.usec());
    EXPECT_EQ(a[i].dilation, b[i].dilation);
    EXPECT_EQ(a[i].far_rack.count(), b[i].far_rack.count());
    EXPECT_EQ(a[i].far_global.count(), b[i].far_global.count());
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].mem_per_node.count(), b[i].mem_per_node.count());
    EXPECT_EQ(a[i].runtime.usec(), b[i].runtime.usec());
    EXPECT_EQ(a[i].sensitivity, b[i].sensitivity);
    EXPECT_EQ(a[i].user, b[i].user);
  }
}

void expect_windows_equal(const std::vector<MetricsWindow>& a,
                          const std::vector<MetricsWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a[i].start.usec(), b[i].start.usec());
    EXPECT_EQ(a[i].end.usec(), b[i].end.usec());
    EXPECT_EQ(a[i].busy_node_seconds, b[i].busy_node_seconds);
    EXPECT_EQ(a[i].queued_job_seconds, b[i].queued_job_seconds);
    EXPECT_EQ(a[i].running_job_seconds, b[i].running_job_seconds);
    EXPECT_EQ(a[i].rack_pool_gib_seconds, b[i].rack_pool_gib_seconds);
    EXPECT_EQ(a[i].global_pool_gib_seconds, b[i].global_pool_gib_seconds);
    EXPECT_EQ(a[i].jobs_submitted, b[i].jobs_submitted);
    EXPECT_EQ(a[i].jobs_started, b[i].jobs_started);
    EXPECT_EQ(a[i].jobs_finished, b[i].jobs_finished);
    EXPECT_EQ(a[i].jobs_rejected, b[i].jobs_rejected);
  }
}

void expect_metrics_equal(const RunMetrics& a, const RunMetrics& b) {
  expect_outcomes_equal(a.jobs, b.jobs);
  expect_windows_equal(a.windows, b.windows);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(a.series[i].time.usec(), b.series[i].time.usec());
    EXPECT_EQ(a.series[i].busy_nodes, b.series[i].busy_nodes);
    EXPECT_EQ(a.series[i].queued_jobs, b.series[i].queued_jobs);
    EXPECT_EQ(a.series[i].running_jobs, b.series[i].running_jobs);
    EXPECT_EQ(a.series[i].rack_pool_used.count(),
              b.series[i].rack_pool_used.count());
    EXPECT_EQ(a.series[i].global_pool_used.count(),
              b.series[i].global_pool_used.count());
  }
  EXPECT_EQ(a.makespan.usec(), b.makespan.usec());
  EXPECT_EQ(a.node_utilization, b.node_utilization);
  EXPECT_EQ(a.rack_pool_utilization, b.rack_pool_utilization);
  EXPECT_EQ(a.rack_pool_peak, b.rack_pool_peak);
  EXPECT_EQ(a.global_pool_utilization, b.global_pool_utilization);
  EXPECT_EQ(a.global_pool_peak, b.global_pool_peak);
  EXPECT_EQ(a.rack_pool_busiest_peak, b.rack_pool_busiest_peak);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.mean_wait_hours, b.mean_wait_hours);
  EXPECT_EQ(a.p95_wait_hours, b.p95_wait_hours);
  EXPECT_EQ(a.max_wait_hours, b.max_wait_hours);
  EXPECT_EQ(a.mean_bsld, b.mean_bsld);
  EXPECT_EQ(a.p95_bsld, b.p95_bsld);
  EXPECT_EQ(a.mean_dilation, b.mean_dilation);
  EXPECT_EQ(a.frac_jobs_far, b.frac_jobs_far);
  EXPECT_EQ(a.frac_jobs_global, b.frac_jobs_global);
  EXPECT_EQ(a.remote_access_fraction, b.remote_access_fraction);
  EXPECT_EQ(a.global_access_fraction, b.global_access_fraction);
  EXPECT_EQ(a.far_gib_hours, b.far_gib_hours);
  EXPECT_EQ(a.jobs_per_hour, b.jobs_per_hour);
}

void expect_jobs_field_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (JobId i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const Job& x = a.job(i);
    const Job& y = b.job(i);
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.submit.usec(), y.submit.usec());
    EXPECT_EQ(x.nodes, y.nodes);
    EXPECT_EQ(x.mem_per_node.count(), y.mem_per_node.count());
    EXPECT_EQ(x.runtime.usec(), y.runtime.usec());
    EXPECT_EQ(x.walltime.usec(), y.walltime.usec());
    EXPECT_EQ(x.sensitivity, y.sensitivity);
    EXPECT_EQ(x.user, y.user);
    EXPECT_EQ(x.gpus_per_node, y.gpus_per_node);
    EXPECT_EQ(x.bb_bytes.count(), y.bb_bytes.count());
  }
}

// --- run drivers ------------------------------------------------------------

struct RunResult {
  RunMetrics metrics;
  std::uint64_t digest = 0;
  std::size_t peak_id_window = 0;
};

EngineOptions harness_options(std::size_t lookahead) {
  EngineOptions opts;
  opts.submit_lookahead = lookahead;
  // Exercise the passive observers too: the differential claim covers the
  // time series and the checkpointed windows, not just per-job outcomes.
  opts.sample_interval = minutes(30);
  opts.checkpoint_interval = hours(2);
  return opts;
}

RunResult run_at(const Scenario& s, SchedulerKind kind,
                 std::size_t lookahead) {
  EagerTraceSource source(s.trace);  // sources are single-use: fresh per run
  SchedulingSimulation sim(s.cluster, source, make_scheduler(kind, {}),
                           harness_options(lookahead));
  RunResult r;
  r.metrics = sim.run();
  r.digest = sim.event_digest();
  r.peak_id_window = sim.peak_event_id_window();
  return r;
}

/// Look-ahead windows to drive each differential pair through: the
/// degenerate window (1), small primes, and a window larger than the whole
/// trace (≡ unbounded), plus deterministic "random" windows.
std::vector<std::size_t> lookahead_windows(std::size_t trace_size,
                                           std::uint64_t seed) {
  std::vector<std::size_t> windows = {1, 2, 7, trace_size + 10};
  std::minstd_rand rng(static_cast<std::minstd_rand::result_type>(seed));
  for (int i = 0; i < 2; ++i) {
    windows.push_back(1 + rng() % (trace_size > 1 ? trace_size : 1));
  }
  return windows;
}

ScenarioParams small_params(const std::string& name) {
  ScenarioParams p;
  p.jobs = scenario_info(name).infrastructure ? 1500 : 250;
  return p;
}

// --- the differential harness ----------------------------------------------

TEST(TraceSourceDifferential, StreamMatchesEagerForEveryScheduler) {
  const Scenario s = make_scenario("golden-baseline", small_params("golden-baseline"));
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    SCOPED_TRACE(to_string(kind));
    const RunResult eager = run_at(s, kind, /*lookahead=*/0);
    for (const std::size_t w : lookahead_windows(s.trace.size(), 17)) {
      SCOPED_TRACE("lookahead " + std::to_string(w));
      const RunResult streamed = run_at(s, kind, w);
      expect_metrics_equal(eager.metrics, streamed.metrics);
      EXPECT_EQ(eager.digest, streamed.digest);
    }
  }
}

TEST(TraceSourceDifferential, StreamMatchesEagerOnTheSwfReplay) {
  const Scenario s = make_scenario("mixed-swf", small_params("mixed-swf"));
  for (const SchedulerKind kind :
       {SchedulerKind::kEasy, SchedulerKind::kMemAwareEasy}) {
    SCOPED_TRACE(to_string(kind));
    const RunResult eager = run_at(s, kind, /*lookahead=*/0);
    for (const std::size_t w : lookahead_windows(s.trace.size(), 23)) {
      SCOPED_TRACE("lookahead " + std::to_string(w));
      const RunResult streamed = run_at(s, kind, w);
      expect_metrics_equal(eager.metrics, streamed.metrics);
      EXPECT_EQ(eager.digest, streamed.digest);
    }
  }
}

TEST(TraceSourceDifferential, MemoryStressedLookaheadIsByteIdentical) {
  // The pool-bound regime: far-memory draws and dilation must not depend on
  // how far ahead submissions are pulled either.
  const Scenario s = make_scenario("memory-stressed", small_params("memory-stressed"));
  const RunResult unbounded = run_at(s, SchedulerKind::kMemAwareEasy, 0);
  for (const std::size_t w : {std::size_t{1}, std::size_t{5}}) {
    SCOPED_TRACE("lookahead " + std::to_string(w));
    const RunResult bounded = run_at(s, SchedulerKind::kMemAwareEasy, w);
    expect_metrics_equal(unbounded.metrics, bounded.metrics);
    EXPECT_EQ(unbounded.digest, bounded.digest);
  }
}

TEST(TraceSourceDifferential, RejectionsAgreeAcrossModes) {
  using testing::job;
  // One job that can never fit (17 nodes on a 16-node machine) among
  // runnable ones: the rejection path retires ring slots out of order.
  const Trace t = testing::trace_of(
      {job(0).at_h(0.0).nodes(4).mem_gib(8).runtime_h(1.0),
       job(1).at_h(0.5).nodes(17).mem_gib(8).runtime_h(1.0),
       job(2).at_h(1.0).nodes(2).mem_gib(8).runtime_h(0.5)});
  const ClusterConfig cluster = testing::machine(16, 64.0);
  EagerTraceSource eager_src(t);
  SchedulingSimulation eager(cluster, eager_src,
                             make_scheduler(SchedulerKind::kEasy, {}),
                             harness_options(0));
  const RunMetrics em = eager.run();
  EagerTraceSource src(t);
  SchedulingSimulation streamed(cluster, src,
                                make_scheduler(SchedulerKind::kEasy, {}),
                                harness_options(1));
  const RunMetrics sm = streamed.run();
  EXPECT_EQ(em.rejected, 1u);
  expect_metrics_equal(em, sm);
  EXPECT_EQ(eager.event_digest(), streamed.event_digest());
}

TEST(TraceSourceDifferential, BoundedLookaheadShrinksThePeakIdWindow) {
  // The memory claim the bench demonstrates at a million jobs, pinned here
  // at test scale: a bounded window keeps the event queue's live id span
  // at O(lookahead + running) instead of O(trace).
  const Scenario s = make_scenario("million-replay", small_params("million-replay"));
  const RunResult eager = run_at(s, SchedulerKind::kEasy, 0);
  const RunResult streamed = run_at(s, SchedulerKind::kEasy, 32);
  expect_metrics_equal(eager.metrics, streamed.metrics);
  EXPECT_EQ(eager.digest, streamed.digest);
  EXPECT_GE(eager.peak_id_window, s.trace.size());
  ASSERT_GT(streamed.peak_id_window, 0u);
  EXPECT_GE(eager.peak_id_window / streamed.peak_id_window, 10u)
      << "eager peak " << eager.peak_id_window << " vs streamed peak "
      << streamed.peak_id_window;
}

// --- scenario streams == scenario traces ------------------------------------

TEST(ScenarioStreams, EveryRegisteredStreamDrainsToTheEagerTrace) {
  for (const std::string& name : scenario_names()) {
    SCOPED_TRACE(name);
    const ScenarioParams p = small_params(name);
    const Scenario eager = make_scenario(name, p);
    ScenarioStream stream = make_scenario_stream(name, p);
    ASSERT_NE(stream.source, nullptr);
    EXPECT_EQ(stream.info.name, eager.info.name);
    EXPECT_EQ(stream.cluster.total_nodes, eager.cluster.total_nodes);
    EXPECT_EQ(stream.workload_reference_mem.count(),
              eager.workload_reference_mem.count());
    EXPECT_EQ(stream.remote_penalty, eager.remote_penalty);
    const Trace drained =
        testing::drain_to_trace(*stream.source, eager.trace.name());
    expect_jobs_field_equal(eager.trace, drained);
  }
}

TEST(ScenarioStreams, SizeHintsMatchTheEagerJobCount) {
  for (const std::string& name : scenario_names()) {
    SCOPED_TRACE(name);
    const ScenarioParams p = small_params(name);
    const Scenario eager = make_scenario(name, p);
    const ScenarioStream stream = make_scenario_stream(name, p);
    const auto hint = stream.source->size_hint();
    if (hint.has_value()) {
      EXPECT_EQ(*hint, eager.trace.size());
    }
  }
}

// --- source adapters ---------------------------------------------------------

TEST(GeneratorSource, YieldsUntilTheCallbackRunsDry) {
  std::size_t i = 0;
  GeneratorTraceSource source(
      "gen",
      [&]() -> std::optional<Job> {
        if (i >= 3) return std::nullopt;
        Job j;
        j.id = 0;  // advisory: drain re-ids
        j.submit = seconds(static_cast<std::int64_t>(100 * i));
        j.nodes = 1;
        j.mem_per_node = gib(std::int64_t{1});
        j.runtime = j.walltime = seconds(std::int64_t{60});
        ++i;
        return j;
      },
      3);
  ASSERT_EQ(source.size_hint(), std::optional<std::size_t>{3});
  const Trace t = testing::drain_to_trace(source, "gen");
  ASSERT_EQ(t.size(), 3u);
  for (JobId id = 0; id < t.size(); ++id) {
    EXPECT_EQ(t.job(id).id, id);  // sequential ids in pull order
    EXPECT_EQ(t.job(id).submit.usec(),
              seconds(static_cast<std::int64_t>(100 * id)).usec());
  }
  EXPECT_FALSE(source.next().has_value());  // exhausted stays exhausted
}

TEST(GeneratorSource, DecreasingSubmitIsALogicError) {
  std::size_t i = 0;
  GeneratorTraceSource source("bad", [&]() -> std::optional<Job> {
    Job j;
    j.submit = seconds(std::int64_t{i == 0 ? 100 : 50});
    j.nodes = 1;
    j.mem_per_node = gib(std::int64_t{1});
    j.runtime = j.walltime = seconds(std::int64_t{60});
    ++i;
    return j;
  });
  EXPECT_TRUE(source.next().has_value());
  EXPECT_THROW(source.next(), std::logic_error);
}

TEST(MappedSource, AppliesTheRewriteInStreamOrder) {
  using testing::job;
  const Trace t = testing::trace_of(
      {job(0).at_h(0.0).nodes(2).runtime_h(1.0),
       job(1).at_h(1.0).nodes(4).runtime_h(1.0)});
  MappedTraceSource mapped(std::make_unique<EagerTraceSource>(t), [](Job j) {
    j.nodes += 1;
    return j;
  });
  const Trace out = testing::drain_to_trace(mapped, "mapped");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.job(0).nodes, 3);
  EXPECT_EQ(out.job(1).nodes, 5);
}

TEST(MappedSource, ReorderingRewriteThrows) {
  using testing::job;
  const Trace t = testing::trace_of(
      {job(0).at_h(0.0).runtime_h(1.0), job(1).at_h(2.0).runtime_h(1.0)});
  MappedTraceSource mapped(std::make_unique<EagerTraceSource>(t), [](Job j) {
    // Non-monotone: pushes the first job after the second.
    if (j.submit == SimTime{}) j.submit = hours(5);
    return j;
  });
  EXPECT_TRUE(mapped.next().has_value());
  EXPECT_THROW(mapped.next(), std::logic_error);
}

TEST(EagerSource, ServesItsTraceOnce) {
  using testing::job;
  const Trace t = testing::trace_of(
      {job(0).at_h(0.0).runtime_h(1.0), job(1).at_h(1.0).runtime_h(1.0)},
      "shared");
  EagerTraceSource source(t);
  EXPECT_EQ(source.name(), "shared");
  EXPECT_EQ(source.size_hint(), std::optional<std::size_t>{2});
  EXPECT_TRUE(source.next().has_value());
  EXPECT_TRUE(source.next().has_value());
  EXPECT_FALSE(source.next().has_value());
}

}  // namespace
}  // namespace dmsched
