// Differential harness for the resource-vector generalization.
//
// Two proof obligations:
//  1. EQUIVALENCE — resource-aware EASY (planning on every axis) must be
//     byte-identical to memory-aware EASY (the paper's memory-only policy)
//     on every machine that provisions no GPU/burst-buffer axis: the
//     generalized predicate collapses to the 2-D one when the extra axes
//     are absent. Checked on every non-infrastructure library scenario,
//     at look-ahead 0 and across bounded windows — metrics AND the
//     semantic event digest.
//  2. DIVERGENCE — on machines that do provision the extra axes, the
//     memory-only policy plans blind: its take-plans over-commit devices
//     the cluster does not have. Pinned at the plan level (blind
//     compute_take accepts what the full predicate rejects, and the
//     materialized allocation demands devices no rack has free, which the
//     ledger refuses loudly), and at the schedule level (the two policies
//     produce genuinely different runs on gpu-contended / bb-staging).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/resources.hpp"
#include "core/engine.hpp"
#include "core/factory.hpp"
#include "memory/placement.hpp"
#include "testing/builders.hpp"
#include "topology/topology.hpp"
#include "workload/scenarios.hpp"

namespace dmsched {
namespace {

// EXPECT_EQ on doubles is deliberate: the contract is bit-reproducibility,
// not tolerance. (The labels differ by design — "mem-easy" vs
// "resource-easy" — so label is the one field not compared.)
void expect_metrics_equal(const RunMetrics& a, const RunMetrics& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].fate, b.jobs[i].fate);
    EXPECT_EQ(a.jobs[i].submit.usec(), b.jobs[i].submit.usec());
    EXPECT_EQ(a.jobs[i].start.usec(), b.jobs[i].start.usec());
    EXPECT_EQ(a.jobs[i].end.usec(), b.jobs[i].end.usec());
    EXPECT_EQ(a.jobs[i].dilation, b.jobs[i].dilation);
    EXPECT_EQ(a.jobs[i].far_rack.count(), b.jobs[i].far_rack.count());
    EXPECT_EQ(a.jobs[i].far_global.count(), b.jobs[i].far_global.count());
  }
  EXPECT_EQ(a.makespan.usec(), b.makespan.usec());
  EXPECT_EQ(a.node_utilization, b.node_utilization);
  EXPECT_EQ(a.rack_pool_utilization, b.rack_pool_utilization);
  EXPECT_EQ(a.rack_pool_peak, b.rack_pool_peak);
  EXPECT_EQ(a.global_pool_utilization, b.global_pool_utilization);
  EXPECT_EQ(a.global_pool_peak, b.global_pool_peak);
  EXPECT_EQ(a.rack_pool_busiest_peak, b.rack_pool_busiest_peak);
  EXPECT_EQ(a.gpu_utilization, b.gpu_utilization);
  EXPECT_EQ(a.gpu_peak, b.gpu_peak);
  EXPECT_EQ(a.bb_utilization, b.bb_utilization);
  EXPECT_EQ(a.bb_peak, b.bb_peak);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.mean_wait_hours, b.mean_wait_hours);
  EXPECT_EQ(a.p95_wait_hours, b.p95_wait_hours);
  EXPECT_EQ(a.mean_bsld, b.mean_bsld);
  EXPECT_EQ(a.p95_bsld, b.p95_bsld);
  EXPECT_EQ(a.mean_dilation, b.mean_dilation);
  EXPECT_EQ(a.frac_jobs_far, b.frac_jobs_far);
  EXPECT_EQ(a.remote_access_fraction, b.remote_access_fraction);
  EXPECT_EQ(a.far_gib_hours, b.far_gib_hours);
  EXPECT_EQ(a.jobs_per_hour, b.jobs_per_hour);
}

struct RunResult {
  RunMetrics metrics;
  std::uint64_t digest = 0;
};

RunResult run_sim(const Scenario& s, SchedulerKind kind,
                  std::size_t lookahead = 0) {
  EagerTraceSource source(s.trace);
  EngineOptions opts;
  opts.submit_lookahead = lookahead;
  SchedulingSimulation sim(s.cluster, source, make_scheduler(kind, {}), opts);
  RunResult r;
  r.metrics = sim.run();
  r.digest = sim.event_digest();
  return r;
}

// --- 1. equivalence on every axis-free machine ------------------------------

TEST(ResourceAwareEquivalence, ByteIdenticalToMemEasyOnEveryLegacyScenario) {
  for (const std::string& name : scenario_names()) {
    const ScenarioInfo& info = scenario_info(name);
    if (info.infrastructure) continue;  // scale workloads, covered elsewhere
    SCOPED_TRACE(name);
    const Scenario s = make_scenario(name, {.jobs = 250});
    if (s.cluster.has_gpus() || s.cluster.has_burst_buffer()) {
      continue;  // the divergence regime, pinned below
    }
    const RunResult mem = run_sim(s, SchedulerKind::kMemAwareEasy);
    const RunResult full = run_sim(s, SchedulerKind::kResourceAwareEasy);
    expect_metrics_equal(mem.metrics, full.metrics);
    EXPECT_EQ(mem.digest, full.digest);
    // Absent axes never move the new metric fields off zero.
    EXPECT_EQ(full.metrics.gpu_utilization, 0.0);
    EXPECT_EQ(full.metrics.gpu_peak, 0.0);
    EXPECT_EQ(full.metrics.bb_utilization, 0.0);
    EXPECT_EQ(full.metrics.bb_peak, 0.0);
  }
}

TEST(ResourceAwareEquivalence, HoldsAcrossStreamingAndLookaheadWindows) {
  // The equivalence must survive bounded ingestion: resource-easy at any
  // look-ahead window == mem-easy at look-ahead 0, digest and all.
  const Scenario s = make_scenario("memory-stressed", {.jobs = 250});
  const RunResult mem = run_sim(s, SchedulerKind::kMemAwareEasy);
  for (const std::size_t w : {std::size_t{1}, std::size_t{7},
                              std::size_t{300}}) {
    SCOPED_TRACE("lookahead " + std::to_string(w));
    const RunResult full =
        run_sim(s, SchedulerKind::kResourceAwareEasy, w);
    expect_metrics_equal(mem.metrics, full.metrics);
    EXPECT_EQ(mem.digest, full.digest);
  }
}

// --- 2. the memory-only policy over-commits blind axes ----------------------

TEST(ResourceAwarePlanning, MemoryOnlyPlanOvercommitsAnExhaustedGpuPool) {
  // 2 racks x 4 nodes, 2 rack-pooled GPUs per node (8 devices per rack).
  ClusterConfig config = testing::machine(8, 64.0);
  config.gpus_per_node = 2;
  Cluster cluster(config);

  // A device hog: 4 nodes at 4 GPUs/node (within each rack's pooled 8)
  // drains every device in the machine while leaving 4 nodes and nearly all
  // memory free.
  const Job hog = testing::job(0).nodes(4).mem_gib(1).gpus(4);
  const auto hog_alloc = plan_start(cluster, hog, PlacementPolicy{});
  ASSERT_TRUE(hog_alloc.has_value());
  cluster.commit(*hog_alloc);
  for (RackId r = 0; r < config.racks(); ++r) {
    ASSERT_EQ(cluster.free_gpus_in_rack(r), 0);
  }
  ASSERT_GT(cluster.free_nodes_total(), 0);

  const Job wants = testing::job(1).nodes(2).mem_gib(1).gpus(2);
  // Idle-machine feasibility holds: this is contention, not rejection.
  EXPECT_TRUE(feasible_on_empty(config, wants, PlacementPolicy{}));

  const ResourceState state = snapshot(cluster);
  // The full predicate refuses: no rack has a device left.
  PlacementPolicy full;
  EXPECT_FALSE(compute_take(state, config, wants, full).has_value());
  // The memory-only predicate — the paper's policy, blind to devices —
  // happily plans the start...
  PlacementPolicy blind;
  blind.axes = ResourceAxes::memory_only();
  const auto plan = compute_take(state, config, wants, blind);
  ASSERT_TRUE(plan.has_value());
  for (const RackTake& t : plan->takes) {
    EXPECT_EQ(t.gpus, 0);  // the plan holds no devices at all
  }
  // ...but the job's physical demand rides on the materialized allocation
  // regardless of what the planner looked at, and no rack can fund it.
  const Allocation alloc = materialize(cluster, wants, *plan);
  EXPECT_EQ(alloc.gpus_per_node, 2);
  EXPECT_EQ(alloc.nodes.size(), 2u);
  // The ledger is the backstop: committing the blind plan dies loudly
  // instead of over-committing devices (which is why the scheduler must
  // revalidate blind-axis starts — see mem_aware_easy).
  EXPECT_DEATH(cluster.commit(alloc), "GPU pool overcommitted");
}

TEST(ResourceAwarePlanning, MemoryOnlyPlanOvercommitsAFullBurstBuffer) {
  ClusterConfig config = testing::machine(8, 64.0);
  config.bb_capacity = gib(100.0);
  Cluster cluster(config);

  const Job hog = testing::job(0).nodes(1).mem_gib(1).bb_gib(80.0);
  const auto hog_alloc = plan_start(cluster, hog, PlacementPolicy{});
  ASSERT_TRUE(hog_alloc.has_value());
  cluster.commit(*hog_alloc);
  ASSERT_EQ(cluster.bb_free(), gib(20.0));

  const Job wants = testing::job(1).nodes(1).mem_gib(1).bb_gib(50.0);
  EXPECT_TRUE(feasible_on_empty(config, wants, PlacementPolicy{}));

  const ResourceState state = snapshot(cluster);
  PlacementPolicy full;
  EXPECT_FALSE(compute_take(state, config, wants, full).has_value());
  PlacementPolicy blind;
  blind.axes = ResourceAxes::memory_only();
  const auto plan = compute_take(state, config, wants, blind);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->bb_bytes.is_zero());
  const Allocation alloc = materialize(cluster, wants, *plan);
  EXPECT_EQ(alloc.bb_bytes, gib(50.0));
  EXPECT_DEATH(cluster.commit(alloc), "burst buffer overcommitted");
}

// --- 3. the policies genuinely diverge where the axes bind ------------------

TEST(ResourceAwareDivergence, SchedulesDifferOnGpuContended) {
  const Scenario s = make_scenario("gpu-contended", {.jobs = 400});
  ASSERT_TRUE(s.cluster.has_gpus());
  const RunResult mem = run_sim(s, SchedulerKind::kMemAwareEasy);
  const RunResult full = run_sim(s, SchedulerKind::kResourceAwareEasy);
  // Both runs are *valid* — mem-easy revalidates its blind starts against
  // the ledger, so neither run over-commits — but the plans differ, so the
  // schedules do too.
  EXPECT_NE(mem.digest, full.digest);
  std::size_t differing_starts = 0;
  ASSERT_EQ(mem.metrics.jobs.size(), full.metrics.jobs.size());
  for (std::size_t i = 0; i < mem.metrics.jobs.size(); ++i) {
    if (mem.metrics.jobs[i].start.usec() !=
        full.metrics.jobs[i].start.usec()) {
      ++differing_starts;
    }
  }
  EXPECT_GT(differing_starts, 0u);
  // The device axis is genuinely exercised on both runs. Rejections are a
  // submission-time property of the workload (a few mixed-model footprints
  // exceed what any pool can fund — nothing to do with GPUs), so the two
  // policies must agree on them exactly.
  EXPECT_GT(mem.metrics.gpu_peak, 0.0);
  EXPECT_GT(full.metrics.gpu_peak, 0.0);
  EXPECT_EQ(mem.metrics.rejected, full.metrics.rejected);
}

TEST(ResourceAwareDivergence, SchedulesDifferOnBbStaging) {
  const Scenario s = make_scenario("bb-staging", {.jobs = 400});
  ASSERT_TRUE(s.cluster.has_burst_buffer());
  const RunResult mem = run_sim(s, SchedulerKind::kMemAwareEasy);
  const RunResult full = run_sim(s, SchedulerKind::kResourceAwareEasy);
  EXPECT_NE(mem.digest, full.digest);
  EXPECT_GT(mem.metrics.bb_peak, 0.0);
  EXPECT_GT(full.metrics.bb_peak, 0.0);
  // No job's BB request exceeds capacity (pinned in scenarios_test), so
  // rejections — if any — are memory-axis submissions both policies agree on.
  EXPECT_EQ(mem.metrics.rejected, full.metrics.rejected);
}

}  // namespace
}  // namespace dmsched
