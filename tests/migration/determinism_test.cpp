// Migration determinism: live tier migration must preserve every
// reproducibility contract the engine already pins — same seed → same
// schedule, look-ahead 0 ≡ every bounded look-ahead window, sweep
// thread-count invariance — and the default 0-sentinel policy must be a
// *byte-identical* no-op, not merely a quiet one. Migration events carry
// their own class (kMigration, after kCompletion at the same timestamp), so
// the (time, class, seq) order — and with it the semantic digest — is a
// pure function of the inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/factory.hpp"
#include "core/sweep.hpp"
#include "obs/recording_sink.hpp"
#include "topology/placement_policy.hpp"
#include "workload/scenarios.hpp"
#include "workload/trace_source.hpp"

namespace dmsched {
namespace {

ScenarioParams small_params() {
  ScenarioParams p;
  p.jobs = 250;
  return p;
}

/// Aggressive-but-plausible knobs so the small test trace actually migrates:
/// a short scan period, a lowered contention threshold, and a finite copy
/// bandwidth so the delayed-apply path (dispatch → in-flight → land) is
/// exercised, not just the instantaneous one.
EngineOptions migration_options() {
  EngineOptions o;
  o.placement = make_placement(PlacementStrategy::kSharedNeighbors);
  o.migration.check_interval = minutes(15);
  o.migration.demote_threshold = 0.5;
  o.migration.promote_headroom = 0.2;
  o.migration.bandwidth_gibps = 4.0;
  return o;
}

struct RunResult {
  RunMetrics metrics;
  std::uint64_t digest = 0;
};

RunResult run_sim(const Scenario& s, EngineOptions opts,
                  std::size_t lookahead = 0) {
  opts.submit_lookahead = lookahead;
  EagerTraceSource source(s.trace);  // sources are single-use: fresh per run
  SchedulingSimulation sim(s.cluster, source,
                           make_scheduler(SchedulerKind::kMemAwareEasy, {}),
                           opts);
  RunResult r;
  r.metrics = sim.run();
  r.digest = sim.event_digest();
  return r;
}

void expect_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.makespan.usec(), b.makespan.usec());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.mean_bsld, b.mean_bsld);          // EXPECT_EQ on doubles is
  EXPECT_EQ(a.mean_dilation, b.mean_dilation);  // deliberate: the contract
  EXPECT_EQ(a.demotions, b.demotions);          // is bit-reproducibility
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.demoted_gib, b.demoted_gib);
  EXPECT_EQ(a.promoted_gib, b.promoted_gib);
  EXPECT_EQ(a.neighbor_access_fraction, b.neighbor_access_fraction);
}

TEST(MigrationDeterminism, SameSeedSameScheduleWithMigrationOn) {
  const Scenario s = make_scenario("shared-neighbors", small_params());
  const RunResult a = run_sim(s, migration_options());
  const RunResult b = run_sim(s, migration_options());
  // Non-vacuous: the knobs above must actually move bytes on this trace.
  ASSERT_GT(a.metrics.demotions + a.metrics.promotions, 0u);
  expect_identical(a.metrics, b.metrics);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(MigrationDeterminism, EagerMatchesStreamedAtEveryLookahead) {
  const Scenario s = make_scenario("shared-neighbors", small_params());
  const RunResult eager = run_sim(s, migration_options());
  ASSERT_GT(eager.metrics.demotions + eager.metrics.promotions, 0u);
  for (const std::size_t w : {std::size_t{1}, std::size_t{7},
                              s.trace.size() + 10}) {
    SCOPED_TRACE("lookahead " + std::to_string(w));
    const RunResult streamed = run_sim(s, migration_options(), w);
    expect_identical(eager.metrics, streamed.metrics);
    EXPECT_EQ(eager.digest, streamed.digest);
  }
}

TEST(MigrationDeterminism, SweepIsThreadCountInvariant) {
  const Scenario s = make_scenario("shared-neighbors", small_params());
  ExperimentConfig base =
      scenario_experiment(s, SchedulerKind::kMemAwareEasy);
  base.engine = migration_options();
  // Two arms (instantaneous and bandwidth-delayed applies) so the sweep has
  // real parallelism to mis-order if it could.
  ExperimentConfig instant = base;
  instant.engine.migration.bandwidth_gibps = 0.0;
  const std::vector<ExperimentConfig> configs = {base, instant};
  const auto serial = run_sweep_on_trace(configs, s.trace, {.threads = 1});
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto parallel = run_sweep_on_trace(configs, s.trace, {.threads = hw});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    expect_identical(serial[i], parallel[i]);
  }
}

TEST(MigrationDeterminism, DefaultPolicyIsAByteIdenticalNoOp) {
  // The 0-sentinel contract behind every published golden: a zero
  // check_interval disables migration *entirely*, even with every other
  // knob cranked — no events, no digest drift, no metric motion.
  const Scenario s = make_scenario("shared-neighbors", small_params());
  EngineOptions plain;
  plain.placement = make_placement(PlacementStrategy::kSharedNeighbors);
  EngineOptions sentinel = plain;
  sentinel.migration.check_interval = SimTime{};  // the sentinel
  sentinel.migration.demote_threshold = 0.1;
  sentinel.migration.promote_headroom = 0.0;
  sentinel.migration.bandwidth_gibps = 100.0;
  const RunResult a = run_sim(s, plain);
  const RunResult b = run_sim(s, sentinel);
  EXPECT_EQ(a.metrics.demotions, 0u);
  EXPECT_EQ(b.metrics.promotions, 0u);
  expect_identical(a.metrics, b.metrics);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(MigrationDeterminism, MigrationEventsAreOrderedAndPassive) {
  // The recorded move stream is time-ordered (the (time, class, seq) queue
  // order), every move re-prices the job, and *observing* the moves is
  // passive: attaching the sink changes no bit of the run.
  const Scenario s = make_scenario("shared-neighbors", small_params());
  const RunResult plain = run_sim(s, migration_options());

  obs::RecordingSink sink;
  EngineOptions opts = migration_options();
  opts.sink = &sink;
  const RunResult observed = run_sim(s, opts);
  expect_identical(plain.metrics, observed.metrics);
  EXPECT_EQ(plain.digest, observed.digest);

  ASSERT_EQ(sink.migrated.size(),
            plain.metrics.demotions + plain.metrics.promotions);
  SimTime prev{};
  for (const auto& m : sink.migrated) {
    EXPECT_GE(m.at.usec(), prev.usec());
    prev = m.at;
    EXPECT_GT(m.gib, 0.0);
    EXPECT_GT(m.dilation_before, 0.0);
    EXPECT_GT(m.dilation_after, 0.0);
    EXPECT_LE(m.at.usec(), plain.metrics.makespan.usec());
  }
  const auto demotes = static_cast<std::size_t>(
      std::count_if(sink.migrated.begin(), sink.migrated.end(),
                    [](const auto& m) { return m.demote; }));
  EXPECT_EQ(demotes, plain.metrics.demotions);
  EXPECT_EQ(sink.migrated.size() - demotes, plain.metrics.promotions);
}

TEST(MigrationDeterminism, AuditStaysGreenThroughEveryMove) {
  // Belt-and-braces for the ledger: run with the full O(nodes) audit after
  // every transition, migration on. Any retier that left a pool or the
  // neighbor ledger inconsistent aborts the test.
  const Scenario s = make_scenario("shared-neighbors", small_params());
  EngineOptions opts = migration_options();
  opts.audit_cluster = true;
  const RunResult audited = run_sim(s, opts);
  ASSERT_GT(audited.metrics.demotions + audited.metrics.promotions, 0u);
  expect_identical(run_sim(s, migration_options()).metrics,
                   audited.metrics);
}

}  // namespace
}  // namespace dmsched
