// Property tests: invariants that must hold for EVERY (scheduler, workload,
// machine) combination. Parameterized sweep across the full matrix.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "cluster/system_config.hpp"
#include "core/experiment.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

struct Matrix {
  SchedulerKind scheduler;
  WorkloadModel model;
  bool with_pool;
};

class InvariantTest : public ::testing::TestWithParam<Matrix> {
 protected:
  RunMetrics run_case(std::uint64_t seed = 11) const {
    const Matrix& p = GetParam();
    ExperimentConfig c;
    c.cluster = p.with_pool
                    ? testing::tiny_cluster(gib(std::int64_t{48}),
                                            gib(std::int64_t{32}))
                    : testing::tiny_cluster();
    c.workload_reference_mem = gib(std::int64_t{64});
    c.scheduler = p.scheduler;
    c.model = p.model;
    c.jobs = 200;
    c.seed = seed;
    c.target_load = 0.9;
    c.engine.audit_cluster = true;  // full ledger audit at every completion
    return run_experiment(c);
  }
};

TEST_P(InvariantTest, EveryJobReachesATerminalState) {
  const RunMetrics m = run_case();
  EXPECT_EQ(m.completed + m.killed + m.rejected, m.jobs.size());
}

TEST_P(InvariantTest, NoJobStartsBeforeSubmission) {
  const RunMetrics m = run_case();
  for (const JobOutcome& o : m.jobs) {
    if (o.fate == JobFate::kRejected) continue;
    EXPECT_GE(o.start, o.submit) << "job " << o.id;
    EXPECT_GT(o.end, o.start) << "job " << o.id;
  }
}

TEST_P(InvariantTest, DilationBoundsRespected) {
  const RunMetrics m = run_case();
  for (const JobOutcome& o : m.jobs) {
    if (o.fate == JobFate::kRejected) continue;
    EXPECT_GE(o.dilation, 1.0) << "job " << o.id;
    // linear model ceiling: 1 + max_sens × max_beta (defaults 1.6, 0.45)
    EXPECT_LE(o.dilation, 1.0 + 1.6 * 0.45 + 1e-9) << "job " << o.id;
    if (!o.used_far_memory()) {
      EXPECT_DOUBLE_EQ(o.dilation, 1.0) << "job " << o.id;
    }
  }
}

TEST_P(InvariantTest, RuntimeMatchesDilation) {
  const RunMetrics m = run_case();
  for (const JobOutcome& o : m.jobs) {
    if (o.fate != JobFate::kCompleted) continue;
    const double expected = o.runtime.seconds() * o.dilation;
    EXPECT_NEAR((o.end - o.start).seconds(), expected, 1e-3)
        << "job " << o.id;
  }
}

/// The same runs, restricted to the matrix rows without pools.
class NoPoolInvariantTest : public InvariantTest {};

TEST_P(NoPoolInvariantTest, NoFarMemoryWithoutPools) {
  const RunMetrics m = run_case();
  for (const JobOutcome& o : m.jobs) {
    EXPECT_FALSE(o.used_far_memory()) << "job " << o.id;
  }
  EXPECT_DOUBLE_EQ(m.frac_jobs_far, 0.0);
}

TEST_P(InvariantTest, RejectionOnlyWhenTrulyUnrunnable) {
  const RunMetrics m = run_case();
  const Matrix& p = GetParam();
  const Bytes local = p.with_pool ? gib(std::int64_t{48})
                                  : gib(std::int64_t{64});
  for (const JobOutcome& o : m.jobs) {
    if (o.fate != JobFate::kRejected) continue;
    // a rejected job must genuinely exceed what the machine can serve
    EXPECT_GT(o.mem_per_node, local) << "job " << o.id;
  }
}

TEST_P(InvariantTest, UtilizationWithinPhysicalBounds) {
  const RunMetrics m = run_case();
  EXPECT_GE(m.node_utilization, 0.0);
  EXPECT_LE(m.node_utilization, 1.0 + 1e-9);
  EXPECT_GE(m.rack_pool_utilization, 0.0);
  EXPECT_LE(m.rack_pool_peak, 1.0 + 1e-9);
  EXPECT_LE(m.global_pool_peak, 1.0 + 1e-9);
}

TEST_P(InvariantTest, MakespanCoversEveryCompletion) {
  const RunMetrics m = run_case();
  for (const JobOutcome& o : m.jobs) {
    if (o.fate == JobFate::kRejected) continue;
    EXPECT_LE(o.end, m.makespan) << "job " << o.id;
  }
}

TEST_P(InvariantTest, WaitTimesAreFiniteUnderFeasibleLoad) {
  // 0.9 offered load must drain: no job waits longer than the whole span
  // of the simulation.
  const RunMetrics m = run_case();
  for (const JobOutcome& o : m.jobs) {
    if (o.fate == JobFate::kRejected) continue;
    EXPECT_LE(o.wait(), m.makespan) << "job " << o.id;
  }
}

TEST_P(InvariantTest, HoldsAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const RunMetrics m = run_case(seed);
    EXPECT_EQ(m.completed + m.killed + m.rejected, m.jobs.size())
        << "seed " << seed;
  }
}

std::string matrix_name(const ::testing::TestParamInfo<Matrix>& info) {
  std::string name = std::string(to_string(info.param.scheduler)) + "_" +
                     to_string(info.param.model) +
                     (info.param.with_pool ? "_pool" : "_nopool");
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

const std::vector<Matrix> kFullMatrix = {
    {SchedulerKind::kFcfs, WorkloadModel::kMixed, true},
    {SchedulerKind::kFcfs, WorkloadModel::kCapacity, false},
    {SchedulerKind::kEasy, WorkloadModel::kMixed, true},
    {SchedulerKind::kEasy, WorkloadModel::kCapability, false},
    {SchedulerKind::kConservative, WorkloadModel::kMixed, true},
    {SchedulerKind::kConservative, WorkloadModel::kCapacity, true},
    {SchedulerKind::kMemAwareEasy, WorkloadModel::kMixed, true},
    {SchedulerKind::kMemAwareEasy, WorkloadModel::kCapacity, true},
    {SchedulerKind::kMemAwareEasy, WorkloadModel::kCapability, false},
    {SchedulerKind::kAdaptive, WorkloadModel::kMixed, true},
    {SchedulerKind::kAdaptive, WorkloadModel::kCapacity, true}};

std::vector<Matrix> no_pool_rows() {
  std::vector<Matrix> rows;
  for (const Matrix& m : kFullMatrix) {
    if (!m.with_pool) rows.push_back(m);
  }
  return rows;
}

INSTANTIATE_TEST_SUITE_P(FullMatrix, InvariantTest,
                         ::testing::ValuesIn(kFullMatrix), matrix_name);
INSTANTIATE_TEST_SUITE_P(FullMatrix, NoPoolInvariantTest,
                         ::testing::ValuesIn(no_pool_rows()), matrix_name);

}  // namespace
}  // namespace dmsched
