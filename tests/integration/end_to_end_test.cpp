// End-to-end behavioural checks: the qualitative results the paper's
// evaluation depends on must emerge from the full pipeline.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "cluster/system_config.hpp"
#include "core/sweep.hpp"
#include "testing/builders.hpp"
#include "testing/trace_io.hpp"
#include "workload/swf.hpp"

namespace dmsched {
namespace {

ExperimentConfig medium(SchedulerKind kind, ClusterConfig cluster,
                        WorkloadModel model = WorkloadModel::kCapacity) {
  ExperimentConfig c;
  c.cluster = std::move(cluster);
  c.workload_reference_mem = gib(std::int64_t{64});
  c.scheduler = kind;
  c.model = model;
  c.jobs = 400;
  c.seed = 21;
  c.target_load = 0.9;
  return c;
}

// A machine whose local memory is HALF the workload's reference size, with
// and without pools — the paper's core comparison, shrunk to test scale.
ClusterConfig shrunk_with_pool() {
  return custom_config(16, 4, gib(std::int64_t{32}), gib(std::int64_t{96}),
                       Bytes{0});
}
ClusterConfig shrunk_no_pool() {
  return custom_config(16, 4, gib(std::int64_t{32}), Bytes{0}, Bytes{0});
}
ClusterConfig full_memory() {
  return custom_config(16, 4, gib(std::int64_t{64}), Bytes{0}, Bytes{0});
}

TEST(EndToEnd, PoolsRescueJobsStrandedByShrunkLocalMemory) {
  const auto config = medium(SchedulerKind::kMemAwareEasy, shrunk_no_pool());
  const Trace trace = make_workload(config);
  const RunMetrics no_pool = run_experiment(config, trace);
  auto pool_config = medium(SchedulerKind::kMemAwareEasy, shrunk_with_pool());
  const RunMetrics with_pool = run_experiment(pool_config, trace);

  EXPECT_GT(no_pool.rejected, 0u)
      << "capacity workload must have jobs above 32 GiB/node";
  // The pool rescues most stranded jobs; a few wide, extremely memory-heavy
  // ones exceed even the pooled capacity and stay rejected.
  EXPECT_LT(with_pool.rejected * 2, no_pool.rejected);
  EXPECT_GT(with_pool.frac_jobs_far, 0.0);
}

TEST(EndToEnd, BackfillingBeatsFcfs) {
  const auto fcfs_config = medium(SchedulerKind::kFcfs, shrunk_with_pool());
  const Trace trace = make_workload(fcfs_config);
  const RunMetrics fcfs = run_experiment(fcfs_config, trace);
  const RunMetrics easy = run_experiment(
      medium(SchedulerKind::kEasy, shrunk_with_pool()), trace);
  EXPECT_LT(easy.mean_wait_hours, fcfs.mean_wait_hours);
}

TEST(EndToEnd, MemoryAwareBeatsMemoryUnawareUnderPoolPressure) {
  // Tight pools: 48 GiB per rack on a memory-heavy workload.
  const ClusterConfig tight =
      custom_config(16, 4, gib(std::int64_t{32}), gib(std::int64_t{48}),
                    Bytes{0});
  const auto easy_config = medium(SchedulerKind::kEasy, tight);
  const Trace trace = make_workload(easy_config);
  const RunMetrics easy = run_experiment(easy_config, trace);
  const RunMetrics mem = run_experiment(
      medium(SchedulerKind::kMemAwareEasy, tight), trace);
  // The paper's headline: memory-aware reservations cut slowdown when the
  // pool is the bottleneck.
  EXPECT_LT(mem.mean_bsld, easy.mean_bsld * 1.05)
      << "mem-easy must be at least comparable";
  EXPECT_LT(mem.p95_wait_hours, easy.p95_wait_hours * 1.10);
}

TEST(EndToEnd, LargerPoolsNeverIncreaseRejections) {
  std::size_t last_rejected = SIZE_MAX;
  const auto base = medium(SchedulerKind::kMemAwareEasy, shrunk_no_pool());
  const Trace trace = make_workload(base);
  for (const std::int64_t pool_gib : {0, 32, 64, 128}) {
    auto config = base;
    config.cluster =
        custom_config(16, 4, gib(std::int64_t{32}), gib(pool_gib), Bytes{0});
    const RunMetrics m = run_experiment(config, trace);
    EXPECT_LE(m.rejected, last_rejected) << "pool " << pool_gib;
    last_rejected = m.rejected;
  }
}

TEST(EndToEnd, HigherBetaMeansMoreDilation) {
  const auto base = medium(SchedulerKind::kMemAwareEasy, shrunk_with_pool());
  const Trace trace = make_workload(base);
  double last_dilation = 0.0;
  for (const double beta : {0.0, 0.3, 0.8}) {
    auto config = base;
    config.engine.slowdown.beta_rack = beta;
    config.engine.slowdown.beta_global = beta * 1.5;
    const RunMetrics m = run_experiment(config, trace);
    EXPECT_GE(m.mean_dilation, last_dilation) << "beta " << beta;
    last_dilation = m.mean_dilation;
  }
}

TEST(EndToEnd, ZeroBetaMeansFreeFarMemory) {
  auto config = medium(SchedulerKind::kMemAwareEasy, shrunk_with_pool());
  config.engine.slowdown.beta_rack = 0.0;
  config.engine.slowdown.beta_global = 0.0;
  const RunMetrics m = run_experiment(config);
  EXPECT_DOUBLE_EQ(m.mean_dilation, 1.0);
}

TEST(EndToEnd, NegativeBetaRackThrowsNamingTheField) {
  // A negative coefficient would dilate walltimes below 1x; the library
  // rejects it at the simulation boundary, not only the CLI.
  auto config = medium(SchedulerKind::kConservative, shrunk_with_pool());
  config.jobs = 20;
  config.engine.slowdown.beta_rack = -0.1;
  try {
    (void)run_experiment(config);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("beta_rack"), std::string::npos)
        << e.what();
  }
}

TEST(EndToEnd, FullMemoryBaselineHasNoFarTraffic) {
  const auto config = medium(SchedulerKind::kEasy, full_memory());
  const Trace trace = make_workload(config);
  const RunMetrics m = run_experiment(config, trace);
  EXPECT_DOUBLE_EQ(m.frac_jobs_far, 0.0);
  // Without pools, exactly the above-local-memory population is rejected —
  // the jobs whose existence motivates disaggregation.
  std::size_t above_local = 0;
  for (const Job& j : trace.jobs()) {
    if (j.mem_per_node > gib(std::int64_t{64})) ++above_local;
  }
  EXPECT_EQ(m.rejected, above_local);
  EXPECT_GT(above_local, 0u);
}

TEST(EndToEnd, CapabilityWorkloadRunsOnAllSchedulers) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const RunMetrics m = run_experiment(
        medium(kind, shrunk_with_pool(), WorkloadModel::kCapability));
    EXPECT_GT(m.completed, 0u) << to_string(kind);
    EXPECT_EQ(m.completed + m.killed + m.rejected, m.jobs.size())
        << to_string(kind);
  }
}

TEST(EndToEnd, SwfRoundTripThroughFullPipeline) {
  // generate -> SWF -> parse -> simulate must equal generate -> simulate.
  // Betas are zeroed because SWF does not carry sensitivity classes, so
  // dilation would otherwise differ between the two paths.
  auto config = medium(SchedulerKind::kEasy, shrunk_with_pool());
  config.engine.slowdown.beta_rack = 0.0;
  config.engine.slowdown.beta_global = 0.0;
  const Trace original = make_workload(config);
  std::stringstream buffer;
  SwfOptions opts;
  testing::write_swf(buffer, original, opts);
  auto parsed = read_swf(buffer, opts, "rt");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.trace.size(), original.size());
  const RunMetrics a = run_experiment(config, original);
  const RunMetrics b = run_experiment(config, parsed.trace);
  // SWF stores seconds; the generator uses microseconds. Starts may differ
  // by sub-second rounding, so compare aggregate structure.
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_NEAR(a.node_utilization, b.node_utilization, 0.02);
}

}  // namespace
}  // namespace dmsched
