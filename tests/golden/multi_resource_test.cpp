// Multi-resource policy divergence — the resource-vector extension's pinned
// claim (referenced from the gpu-contended registry entry).
//
// On machines that provision only the paper's two axes (nodes, memory) the
// resource-aware policy is byte-identical to mem-aware EASY — that contract
// lives in tests/sched/resource_aware_test.cpp and the untouched golden
// tables. This suite pins the *other* half: on gpu-contended, where a
// rack-pooled device axis binds, the GPU-blind mem-easy and the full
// resource-easy produce genuinely different schedules, and the difference
// points the right way — planning with device visibility starts GPU jobs
// without the blind policy's revalidation bounces, so resource-easy waits
// no more than mem-easy.
//
// Like the other comparison goldens the table is computed locally (nothing
// here regenerates the pinned golden CSVs), and the suite writes
// multi_resource.csv next to the binary; CI uploads it as a workflow
// artifact so every push carries the current two-policy comparison.
#include <gtest/gtest.h>

#include <vector>

#include "common/csv.hpp"
#include "core/sweep.hpp"

namespace dmsched {
namespace {

class MultiResourceTest : public ::testing::Test {
 protected:
  static constexpr SchedulerKind kKinds[] = {SchedulerKind::kMemAwareEasy,
                                             SchedulerKind::kResourceAwareEasy};

  static void SetUpTestSuite() {
    scenario_ = new Scenario(make_scenario("gpu-contended"));
    std::vector<ExperimentConfig> configs;
    for (const SchedulerKind kind : kKinds) {
      ExperimentConfig c = scenario_experiment(*scenario_, kind);
      c.engine.audit_cluster = true;
      configs.push_back(std::move(c));
    }
    results_ = new std::vector<RunMetrics>(
        run_sweep_on_trace(configs, scenario_->trace, {.threads = 1}));
  }
  static void TearDownTestSuite() {
    delete results_;
    delete scenario_;
    results_ = nullptr;
    scenario_ = nullptr;
  }

  static const RunMetrics& mem() { return (*results_)[0]; }
  static const RunMetrics& full() { return (*results_)[1]; }

  static Scenario* scenario_;
  static std::vector<RunMetrics>* results_;
};

Scenario* MultiResourceTest::scenario_ = nullptr;
std::vector<RunMetrics>* MultiResourceTest::results_ = nullptr;

TEST_F(MultiResourceTest, ScenarioActuallyContendsForDevices) {
  // Guard against parameter drift neutering the scenario: the machine must
  // provision a device axis, a solid share of jobs must demand it, and both
  // runs must drive the device pool hard.
  ASSERT_TRUE(scenario_->cluster.has_gpus());
  std::size_t gpu_jobs = 0;
  for (const Job& j : scenario_->trace.jobs()) {
    if (j.gpus_per_node > 0) ++gpu_jobs;
  }
  EXPECT_GT(gpu_jobs, scenario_->trace.size() / 3);
  for (const RunMetrics& m : *results_) {
    EXPECT_GT(m.gpu_peak, 0.9) << m.label;
    EXPECT_GT(m.gpu_utilization, 0.0) << m.label;
  }
}

TEST_F(MultiResourceTest, BlindAndFullPoliciesDiverge) {
  // The acceptance claim: once a third axis binds, the paper's 2-D policy
  // and the generalized predicate make different decisions, visibly in the
  // aggregate metrics — not just in some internal event order.
  EXPECT_NE(mem().makespan.usec(), full().makespan.usec());
  EXPECT_NE(mem().mean_wait_hours, full().mean_wait_hours);
  std::size_t differing_starts = 0;
  ASSERT_EQ(mem().jobs.size(), full().jobs.size());
  for (std::size_t i = 0; i < mem().jobs.size(); ++i) {
    if (mem().jobs[i].start.usec() != full().jobs[i].start.usec()) {
      ++differing_starts;
    }
  }
  EXPECT_GT(differing_starts, 0u);
}

TEST_F(MultiResourceTest, DeviceVisibilityDoesNotHurtWaits) {
  // Direction of the divergence (the registry's expected_ordering): the
  // device-aware planner never bounces a start off the GPU ledger, so it
  // waits no more than the blind policy that plans first and revalidates
  // after.
  EXPECT_LE(full().mean_wait_hours, mem().mean_wait_hours);
}

TEST_F(MultiResourceTest, BothRunsAreValid) {
  // Divergence must not come from dropped work: mem-easy revalidates its
  // blind starts, so both policies complete the same workload (rejections
  // are submission-time memory footprints both agree on — see
  // tests/sched/resource_aware_test.cpp).
  EXPECT_EQ(mem().rejected, full().rejected);
  EXPECT_EQ(mem().completed + mem().killed + mem().rejected,
            full().completed + full().killed + full().rejected);
}

TEST_F(MultiResourceTest, WritesComparisonCsv) {
  // The CI artifact: one row per policy on the gpu-contended scenario.
  CsvWriter csv("multi_resource.csv");
  ASSERT_TRUE(csv.ok());
  csv.header({"scenario", "scheduler", "makespan_h", "mean_wait_h",
              "p95_wait_h", "mean_bsld", "utilization", "gpu_utilization",
              "gpu_peak", "frac_far"});
  for (std::size_t i = 0; i < results_->size(); ++i) {
    const RunMetrics& m = (*results_)[i];
    csv.add(scenario_->info.name)
        .add(to_string(kKinds[i]))
        .add(m.makespan.hours())
        .add(m.mean_wait_hours)
        .add(m.p95_wait_hours)
        .add(m.mean_bsld)
        .add(m.node_utilization)
        .add(m.gpu_utilization)
        .add(m.gpu_peak)
        .add(m.frac_jobs_far);
    csv.end_row();
  }
}

}  // namespace
}  // namespace dmsched
