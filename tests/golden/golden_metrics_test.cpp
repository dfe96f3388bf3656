// Golden-metrics regression harness.
//
// Runs a small fixed-seed end-to-end simulation per scheduler through
// run_sweep_on_trace and pins the resulting RunMetrics. This turns the
// engine's determinism claim into an enforced invariant: any PR that changes
// scheduling behaviour — intentionally or not — trips this suite and must
// regenerate the table (see tests/golden/README.md).
//
// Three layers of checking, strictest first:
//  1. byte-identity across repeated runs (EXPECT_EQ on every field);
//  2. byte-identity between threads=1 and threads=hardware_concurrency
//     (sweep parallelism must not perturb results);
//  3. pinned golden values for the headline metrics of each scheduler.
//
// Every golden run also executes with EngineOptions::audit_cluster enabled,
// so cluster invariants (no over-commit, allocation/usage bookkeeping) are
// validated after each job completion as a side effect of the suite.
//
// To regenerate the table after an intentional behaviour change:
//   DMSCHED_REGEN_GOLDEN=1 ./build/tests/golden_golden_metrics_test
// and paste the printed block over kGolden below.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

/// Headline metrics pinned per scheduler. Values are printed with %.17g so
/// doubles round-trip exactly through the source code.
struct GoldenRecord {
  SchedulerKind scheduler;
  std::int64_t makespan_usec;
  std::size_t completed;
  std::size_t rejected;
  double mean_wait_hours;
  double mean_bsld;
  double node_utilization;
  double rack_pool_utilization;
  double global_pool_utilization;
  double mean_dilation;
  double frac_jobs_far;
};

// --- The golden table -------------------------------------------------------
// Scenario: 16-node tiny cluster (4 racks × 4 nodes, 64 GiB local), 32 GiB
// rack pools, 128 GiB global pool; 400 mixed-model jobs, seed 20240726,
// target load 1.1 (oversubscribed so queues form and pools are exercised).
constexpr GoldenRecord kGolden[] = {
    {SchedulerKind::kFcfs, 3184885108686, 363, 37, 170.24501375801572,
     370.80363166981397, 0.62581285393900554, 0.11512328236250666,
     0.066704744454911688, 1.0117167726045706, 0.18732782369146006},
    {SchedulerKind::kEasy, 2341827208817, 363, 37, 38.322239335500448,
     77.421151570655383, 0.85113192136187832, 0.15491846925836342,
     0.09247566348958175, 1.0121243845650612, 0.18732782369146006},
    {SchedulerKind::kConservative, 2435724116981, 363, 37, 40.034605553903447,
     78.562344273048609, 0.81832893692268205, 0.14852591968673645,
     0.089357629654774201, 1.0119524613098214, 0.18732782369146006},
    {SchedulerKind::kMemAwareEasy, 2341827208817, 363, 37, 38.44026515943294,
     77.514898994535031, 0.85114152156566514, 0.15420014002561525,
     0.093227176203641404, 1.0119592984294279, 0.18732782369146006},
    {SchedulerKind::kAdaptive, 2341827208817, 363, 37, 38.388958114087828,
     77.434450375276981, 0.85112913371179544, 0.15557784991060344,
     0.09183447035361747, 1.0119433527782502, 0.18732782369146006},
};

// The golden machine/workload is the scenario library's "golden-baseline"
// (src/workload/scenarios.cpp): a 96-GiB-reference mixed workload on the
// 64-GiB tiny pooled machine, so a solid share of jobs overflow into the
// pools. Sourcing it from the registry pins the library and this table to
// each other — a scenario drift trips the suite exactly like an engine
// drift.
ExperimentConfig golden_config(const Scenario& scenario, SchedulerKind kind) {
  ExperimentConfig c = scenario_experiment(scenario, kind);
  c.label = to_string(kind);
  // Every golden run doubles as a cluster-invariant audit (O(nodes) per
  // completion — cheap at 16 nodes, priceless as a regression net).
  c.engine.audit_cluster = true;
  return c;
}

std::vector<ExperimentConfig> golden_configs(const Scenario& scenario) {
  std::vector<ExperimentConfig> configs;
  for (const GoldenRecord& rec : kGolden) {
    configs.push_back(golden_config(scenario, rec.scheduler));
  }
  return configs;
}

/// The strictest comparison: every per-job field and every aggregate must be
/// bit-identical. Used run-vs-run and threads=1 vs threads=N.
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

void expect_matches_golden(const RunMetrics& m, const GoldenRecord& g) {
  SCOPED_TRACE(to_string(g.scheduler));
  EXPECT_EQ(m.makespan.usec(), g.makespan_usec);
  EXPECT_EQ(m.completed, g.completed);
  EXPECT_EQ(m.rejected, g.rejected);
  // %.17g round-trips exactly, so equality is expected on the pinned
  // platform; DOUBLE_EQ (4 ulps) absorbs cross-compiler FP variance.
  EXPECT_DOUBLE_EQ(m.mean_wait_hours, g.mean_wait_hours);
  EXPECT_DOUBLE_EQ(m.mean_bsld, g.mean_bsld);
  EXPECT_DOUBLE_EQ(m.node_utilization, g.node_utilization);
  EXPECT_DOUBLE_EQ(m.rack_pool_utilization, g.rack_pool_utilization);
  EXPECT_DOUBLE_EQ(m.global_pool_utilization, g.global_pool_utilization);
  EXPECT_DOUBLE_EQ(m.mean_dilation, g.mean_dilation);
  EXPECT_DOUBLE_EQ(m.frac_jobs_far, g.frac_jobs_far);
}

const char* kind_token(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return "kFcfs";
    case SchedulerKind::kEasy: return "kEasy";
    case SchedulerKind::kConservative: return "kConservative";
    case SchedulerKind::kMemAwareEasy: return "kMemAwareEasy";
    case SchedulerKind::kAdaptive: return "kAdaptive";
    case SchedulerKind::kResourceAwareEasy: return "kResourceAwareEasy";
  }
  return "?";
}

void print_regen_table(const std::vector<RunMetrics>& results) {
  std::printf("constexpr GoldenRecord kGolden[] = {\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunMetrics& m = results[i];
    std::printf(
        "    {SchedulerKind::%s, %lld, %zu, %zu, %.17g, %.17g, %.17g, "
        "%.17g, %.17g, %.17g, %.17g},\n",
        kind_token(kGolden[i].scheduler),
        static_cast<long long>(m.makespan.usec()), m.completed, m.rejected,
        m.mean_wait_hours, m.mean_bsld, m.node_utilization,
        m.rack_pool_utilization, m.global_pool_utilization, m.mean_dilation,
        m.frac_jobs_far);
  }
  std::printf("};\n");
}

class GoldenMetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(make_scenario("golden-baseline"));
    configs_ = new std::vector<ExperimentConfig>(golden_configs(*scenario_));
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

  static Scenario* scenario_;
  static std::vector<ExperimentConfig>* configs_;
  static std::vector<RunMetrics>* serial_;
};

Scenario* GoldenMetricsTest::scenario_ = nullptr;
std::vector<ExperimentConfig>* GoldenMetricsTest::configs_ = nullptr;
std::vector<RunMetrics>* GoldenMetricsTest::serial_ = nullptr;

TEST_F(GoldenMetricsTest, MatchesPinnedValues) {
  if (std::getenv("DMSCHED_REGEN_GOLDEN") != nullptr) {
    print_regen_table(*serial_);
    GTEST_SKIP() << "regen mode: table printed, assertions skipped";
  }
  ASSERT_EQ(serial_->size(), std::size(kGolden));
  for (std::size_t i = 0; i < serial_->size(); ++i) {
    expect_matches_golden((*serial_)[i], kGolden[i]);
  }
}

TEST_F(GoldenMetricsTest, ScenarioMachineStaysPinned) {
  // The golden table is only meaningful on the published machine; a scenario
  // edit that moves it must regenerate the table (and say why).
  const ClusterConfig expected = testing::tiny_cluster(
      gib(std::int64_t{32}), gib(std::int64_t{128}));
  EXPECT_EQ(scenario_->cluster.total_nodes, expected.total_nodes);
  EXPECT_EQ(scenario_->cluster.nodes_per_rack, expected.nodes_per_rack);
  EXPECT_EQ(scenario_->cluster.local_mem_per_node,
            expected.local_mem_per_node);
  EXPECT_EQ(scenario_->cluster.pool_per_rack, expected.pool_per_rack);
  EXPECT_EQ(scenario_->cluster.global_pool, expected.global_pool);
  EXPECT_EQ(scenario_->workload_reference_mem, gib(std::int64_t{96}));
  EXPECT_EQ(scenario_->trace.size(), 400u);
}

TEST_F(GoldenMetricsTest, RepeatedRunIsByteIdentical) {
  const auto again =
      run_sweep_on_trace(*configs_, scenario_->trace, {.threads = 1});
  ASSERT_EQ(again.size(), serial_->size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    SCOPED_TRACE(to_string(kGolden[i].scheduler));
    expect_byte_identical((*serial_)[i], again[i]);
  }
}

TEST_F(GoldenMetricsTest, HardwareThreadsMatchSerial) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto parallel =
      run_sweep_on_trace(*configs_, scenario_->trace, {.threads = hw});
  ASSERT_EQ(parallel.size(), serial_->size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE(to_string(kGolden[i].scheduler));
    expect_byte_identical((*serial_)[i], parallel[i]);
  }
}

TEST_F(GoldenMetricsTest, OddThreadCountMatchesSerial) {
  // A thread count that does not divide the config count exercises the
  // chunk counter's remainder handling.
  const auto parallel =
      run_sweep_on_trace(*configs_, scenario_->trace, {.threads = 3});
  ASSERT_EQ(parallel.size(), serial_->size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE(to_string(kGolden[i].scheduler));
    expect_byte_identical((*serial_)[i], parallel[i]);
  }
}

TEST_F(GoldenMetricsTest, ExplicitChunkSizesMatchSerial) {
  // Chunked work distribution must never perturb results: every chunk size
  // (dividing, non-dividing, larger than the config count) is byte-identical
  // to the serial sweep.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{64}}) {
    const auto parallel = run_sweep_on_trace(*configs_, scenario_->trace,
                                             SweepOptions{hw, chunk});
    ASSERT_EQ(parallel.size(), serial_->size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(kGolden[i].scheduler) << " chunk " << chunk);
      expect_byte_identical((*serial_)[i], parallel[i]);
    }
  }
}

TEST_F(GoldenMetricsTest, RepeatedSweepsOnTheSharedPoolStayByteIdentical) {
  // Back-to-back sweeps in one process, each with its own threads, must all
  // produce byte-identical output.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto warm =
        run_sweep_on_trace(*configs_, scenario_->trace, {.threads = hw});
    ASSERT_EQ(warm.size(), serial_->size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(kGolden[i].scheduler) << " repeat " << repeat);
      expect_byte_identical((*serial_)[i], warm[i]);
    }
  }
}

TEST_F(GoldenMetricsTest, ScenarioExercisesThePools) {
  // Guard against the scenario degenerating (e.g. a workload-model change
  // that stops touching far memory would silently weaken the suite).
  bool any_far = false;
  for (const RunMetrics& m : *serial_) {
    if (m.frac_jobs_far > 0.0) any_far = true;
  }
  EXPECT_TRUE(any_far) << "golden scenario no longer exercises the pools";
}

}  // namespace
}  // namespace dmsched
