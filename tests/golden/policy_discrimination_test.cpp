// Fig. 6 policy discrimination — the paper's core claim, enforced in CI.
//
// The paper's headline result is that memory-aware policies separate from
// EASY exactly when local memory is scarce and the disaggregated pool is
// under pressure. The scenario library's "memory-stressed" scenario is built
// for that regime; this suite runs every scheduler on it through the chunked
// sweep and asserts:
//
//  1. EASY and mem-aware-EASY produce *different* makespans (the golden
//     scenario alone cannot show this — its policies tie);
//  2. the discrimination points the right way: every memory-aware policy
//     (per the Scheduler::memory_aware() hook) waits less than the
//     memory-unaware EASY baseline, and FCFS is worst overall;
//  3. chunked run_sweep_on_trace output is byte-identical between
//     threads=1 and hardware concurrency, for several chunk sizes.
//
// As a side effect the suite writes fig6_policy_comparison.csv next to the
// binary (one row per scheduler); CI uploads it as a workflow artifact so
// every push carries the current policy-comparison numbers.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "core/sweep.hpp"

namespace dmsched {
namespace {

class PolicyDiscriminationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(make_scenario("memory-stressed"));
    configs_ = new std::vector<ExperimentConfig>();
    for (const SchedulerKind kind : all_scheduler_kinds()) {
      ExperimentConfig c = scenario_experiment(*scenario_, kind);
      c.engine.audit_cluster = true;
      configs_->push_back(std::move(c));
    }
    serial_ = new std::vector<RunMetrics>(
        run_sweep_on_trace(*configs_, scenario_->trace, {.threads = 1}));
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete configs_;
    delete scenario_;
    serial_ = nullptr;
    configs_ = nullptr;
    scenario_ = nullptr;
  }

  static const RunMetrics& result_for(SchedulerKind kind) {
    const auto kinds = all_scheduler_kinds();
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (kinds[i] == kind) return (*serial_)[i];
    }
    ADD_FAILURE() << "scheduler not in sweep";
    return serial_->front();
  }

  static Scenario* scenario_;
  static std::vector<ExperimentConfig>* configs_;
  static std::vector<RunMetrics>* serial_;
};

Scenario* PolicyDiscriminationTest::scenario_ = nullptr;
std::vector<ExperimentConfig>* PolicyDiscriminationTest::configs_ = nullptr;
std::vector<RunMetrics>* PolicyDiscriminationTest::serial_ = nullptr;

TEST_F(PolicyDiscriminationTest, EasyAndMemAwareEasyDiverge) {
  const RunMetrics& easy = result_for(SchedulerKind::kEasy);
  const RunMetrics& mem = result_for(SchedulerKind::kMemAwareEasy);
  // The acceptance claim: under memory pressure the 2-D reservation makes
  // different decisions than the node-only shadow, visibly in the makespan.
  EXPECT_NE(easy.makespan.usec(), mem.makespan.usec());
  EXPECT_NE(easy.mean_wait_hours, mem.mean_wait_hours);
}

TEST_F(PolicyDiscriminationTest, MemoryAwarePoliciesWaitLessThanEasy) {
  const RunMetrics& easy = result_for(SchedulerKind::kEasy);
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    // Group policies through the scenario-metadata hook rather than a
    // hard-coded list, so new memory-aware policies join the claim.
    if (!make_scheduler(kind)->memory_aware()) continue;
    const RunMetrics& m = result_for(kind);
    EXPECT_LT(m.mean_wait_hours, easy.mean_wait_hours) << to_string(kind);
    EXPECT_LT(m.makespan.usec(), easy.makespan.usec()) << to_string(kind);
  }
}

TEST_F(PolicyDiscriminationTest, FcfsIsWorst) {
  const RunMetrics& fcfs = result_for(SchedulerKind::kFcfs);
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    if (kind == SchedulerKind::kFcfs) continue;
    EXPECT_GT(fcfs.mean_wait_hours, result_for(kind).mean_wait_hours)
        << to_string(kind);
  }
}

TEST_F(PolicyDiscriminationTest, ScenarioActuallyStressesMemory) {
  // Guard against parameter drift neutering the scenario: a solid share of
  // jobs must exceed local memory, and the pools must be used.
  std::size_t above_local = 0;
  for (const Job& j : scenario_->trace.jobs()) {
    if (j.mem_per_node > scenario_->cluster.local_mem_per_node) ++above_local;
  }
  EXPECT_GT(above_local, scenario_->trace.size() / 4);
  for (const RunMetrics& m : *serial_) {
    EXPECT_GT(m.frac_jobs_far, 0.25) << m.label;
  }
}

TEST_F(PolicyDiscriminationTest, ChunkedSweepIsThreadCountInvariant) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t chunk :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    const auto parallel = run_sweep_on_trace(*configs_, scenario_->trace,
                                             SweepOptions{hw, chunk});
    ASSERT_EQ(parallel.size(), serial_->size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << (*serial_)[i].label << " chunk " << chunk);
      const RunMetrics& a = (*serial_)[i];
      const RunMetrics& b = parallel[i];
      ASSERT_EQ(a.jobs.size(), b.jobs.size());
      for (std::size_t j = 0; j < a.jobs.size(); ++j) {
        ASSERT_EQ(a.jobs[j].start.usec(), b.jobs[j].start.usec())
            << "job " << j;
        ASSERT_EQ(a.jobs[j].end.usec(), b.jobs[j].end.usec()) << "job " << j;
        ASSERT_EQ(a.jobs[j].dilation, b.jobs[j].dilation) << "job " << j;
      }
      EXPECT_EQ(a.makespan.usec(), b.makespan.usec());
      EXPECT_EQ(a.mean_wait_hours, b.mean_wait_hours);
      EXPECT_EQ(a.mean_bsld, b.mean_bsld);
      EXPECT_EQ(a.node_utilization, b.node_utilization);
    }
  }
}

TEST_F(PolicyDiscriminationTest, WritesComparisonCsv) {
  // The CI artifact: one row per scheduler on the memory-stressed scenario.
  CsvWriter csv("fig6_policy_comparison.csv");
  ASSERT_TRUE(csv.ok());
  csv.header({"scenario", "scheduler", "memory_aware", "makespan_h",
              "mean_wait_h", "p95_wait_h", "mean_bsld", "p95_bsld",
              "utilization", "frac_far", "mean_dilation"});
  const auto kinds = all_scheduler_kinds();
  for (std::size_t i = 0; i < serial_->size(); ++i) {
    const RunMetrics& m = (*serial_)[i];
    csv.add(scenario_->info.name)
        .add(to_string(kinds[i]))
        .add(std::int64_t{make_scheduler(kinds[i])->memory_aware() ? 1 : 0})
        .add(m.makespan.hours())
        .add(m.mean_wait_hours)
        .add(m.p95_wait_hours)
        .add(m.mean_bsld)
        .add(m.p95_bsld)
        .add(m.node_utilization)
        .add(m.frac_jobs_far)
        .add(m.mean_dilation);
    csv.end_row();
  }
}

}  // namespace
}  // namespace dmsched
