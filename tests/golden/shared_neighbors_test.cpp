// Shared-neighbors discrimination — the distance-graded neighbor tier's
// pinned claim, enforced in CI.
//
// On the shared-neighbors scenario (a rack-local machine whose rejection
// pathology is the point — scarce local memory, fat rack pools, a thin
// global tier) four arms run mem-aware-EASY through the chunked sweep:
//
//   local-first             strict locality: the ~50%-rejection baseline
//   shared-neighbors        neighbor draws at the three-tier β (0.375)
//   shared-neighbors/flat-β neighbor bytes priced at β_global — proves the
//                           third coefficient is load-bearing, not cosmetic
//   shared-neighbors/migration  the same machine with live tier migration
//                           on (audited retier after every move)
//
// The suite pins the headline metrics per arm, asserts the rejection
// recovery (shared-neighbors completes most of what strict locality sheds),
// the three-tier β divergence, and a nonzero migration rate on the
// migration arm — with the full cluster audit green through every move.
//
// As a side effect it writes shared_neighbors.csv next to the binary (one
// row per arm); CI uploads it as a workflow artifact.
//
// To regenerate after an intentional behaviour change:
//   DMSCHED_REGEN_GOLDEN=1 ./build/tests/golden_shared_neighbors_test
// and paste the printed block over kGolden below (and say why in the PR).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "core/sweep.hpp"
#include "topology/placement_policy.hpp"

namespace dmsched {
namespace {

enum class Arm : std::uint8_t {
  kLocalFirst,
  kSharedNeighbors,
  kFlatBeta,
  kMigration,
};

const char* arm_name(Arm a) {
  switch (a) {
    case Arm::kLocalFirst: return "local-first";
    case Arm::kSharedNeighbors: return "shared-neighbors";
    case Arm::kFlatBeta: return "shared-neighbors/flat-beta";
    case Arm::kMigration: return "shared-neighbors/migration";
  }
  return "?";
}

const char* arm_token(Arm a) {
  switch (a) {
    case Arm::kLocalFirst: return "kLocalFirst";
    case Arm::kSharedNeighbors: return "kSharedNeighbors";
    case Arm::kFlatBeta: return "kFlatBeta";
    case Arm::kMigration: return "kMigration";
  }
  return "?";
}

/// Headline metrics pinned per arm (mem-aware-EASY on shared-neighbors
/// defaults). Doubles printed with %.17g round-trip exactly.
struct GoldenRecord {
  Arm arm;
  std::int64_t makespan_usec;
  std::size_t completed;
  std::size_t rejected;
  double mean_wait_hours;
  double mean_dilation;
  double remote_access_fraction;
  double neighbor_access_fraction;
  double global_access_fraction;
  std::size_t demotions;
  std::size_t promotions;
};

// --- The golden table -------------------------------------------------------
// Scenario: shared-neighbors (48 nodes = 6 racks × 8, 64 GiB local, 128 GiB
// pool/rack, 96 GiB global; capacity workload referenced to 128 GiB nodes,
// 500 jobs, seed 23, load 1.0), scheduler mem-easy.
constexpr GoldenRecord kGolden[] = {
    {Arm::kLocalFirst, 303326421706, 452, 48, 2.9940090334421066, 1.0662726944260477, 0.28694830672058402, 0, 0, 0, 0},
    {Arm::kSharedNeighbors, 366000594190, 487, 13, 3.9505393733139393, 1.0888595459342885, 0.35416911184885574, 0.075085641617802915, 0.022158433021153789, 0, 0},
    {Arm::kFlatBeta, 367233814852, 487, 13, 4.4965662513529532, 1.0933087317628405, 0.35416911184885574, 0.088500349316628951, 0.019964687321854174, 0, 0},
    {Arm::kMigration, 366335823056, 487, 13, 3.8788453468297943, 1.0880052735049839, 0.35416911184885574, 0.078689740234769448, 0.021945830457745317, 82, 6},
};

ExperimentConfig arm_config(const Scenario& scenario, Arm arm) {
  ExperimentConfig c =
      scenario_experiment(scenario, SchedulerKind::kMemAwareEasy);
  c.label = std::string("shared-neighbors/") + arm_name(arm);
  c.engine.audit_cluster = true;
  switch (arm) {
    case Arm::kLocalFirst:
      c.engine.placement = make_placement(PlacementStrategy::kLocalFirst);
      break;
    case Arm::kSharedNeighbors:
      c.engine.placement = make_placement(PlacementStrategy::kSharedNeighbors);
      break;
    case Arm::kFlatBeta:
      c.engine.placement = make_placement(PlacementStrategy::kSharedNeighbors);
      // Collapse the distance grade: neighbor bytes priced like global
      // bytes. Everything else identical to the shared-neighbors arm.
      c.engine.slowdown.beta_neighbor = c.engine.slowdown.beta_global;
      break;
    case Arm::kMigration:
      c.engine.placement = make_placement(PlacementStrategy::kSharedNeighbors);
      c.engine.migration.check_interval = minutes(30);
      c.engine.migration.demote_threshold = 0.5;
      c.engine.migration.promote_headroom = 0.2;
      c.engine.migration.bandwidth_gibps = 4.0;
      break;
  }
  return c;
}

void print_regen_table(const std::vector<RunMetrics>& results) {
  std::printf("constexpr GoldenRecord kGolden[] = {\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunMetrics& m = results[i];
    std::printf(
        "    {Arm::%s, %lld, %zu, %zu, %.17g, %.17g, %.17g, %.17g, %.17g, "
        "%zu, %zu},\n",
        arm_token(kGolden[i].arm), static_cast<long long>(m.makespan.usec()),
        m.completed, m.rejected, m.mean_wait_hours, m.mean_dilation,
        m.remote_access_fraction, m.neighbor_access_fraction,
        m.global_access_fraction, m.demotions, m.promotions);
  }
  std::printf("};\n");
}

class SharedNeighborsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(make_scenario("shared-neighbors"));
    configs_ = new std::vector<ExperimentConfig>();
    for (const GoldenRecord& rec : kGolden) {
      configs_->push_back(arm_config(*scenario_, rec.arm));
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

  static const RunMetrics& result_for(Arm a) {
    for (std::size_t i = 0; i < std::size(kGolden); ++i) {
      if (kGolden[i].arm == a) return (*serial_)[i];
    }
    ADD_FAILURE() << "arm not in sweep";
    return serial_->front();
  }

  static Scenario* scenario_;
  static std::vector<ExperimentConfig>* configs_;
  static std::vector<RunMetrics>* serial_;
};

Scenario* SharedNeighborsTest::scenario_ = nullptr;
std::vector<ExperimentConfig>* SharedNeighborsTest::configs_ = nullptr;
std::vector<RunMetrics>* SharedNeighborsTest::serial_ = nullptr;

TEST_F(SharedNeighborsTest, MatchesPinnedValues) {
  if (std::getenv("DMSCHED_REGEN_GOLDEN") != nullptr) {
    print_regen_table(*serial_);
    GTEST_SKIP() << "regen mode: table printed, assertions skipped";
  }
  ASSERT_EQ(serial_->size(), std::size(kGolden));
  for (std::size_t i = 0; i < serial_->size(); ++i) {
    const RunMetrics& m = (*serial_)[i];
    const GoldenRecord& g = kGolden[i];
    SCOPED_TRACE(arm_name(g.arm));
    EXPECT_EQ(m.makespan.usec(), g.makespan_usec);
    EXPECT_EQ(m.completed, g.completed);
    EXPECT_EQ(m.rejected, g.rejected);
    EXPECT_DOUBLE_EQ(m.mean_wait_hours, g.mean_wait_hours);
    EXPECT_DOUBLE_EQ(m.mean_dilation, g.mean_dilation);
    EXPECT_DOUBLE_EQ(m.remote_access_fraction, g.remote_access_fraction);
    EXPECT_DOUBLE_EQ(m.neighbor_access_fraction, g.neighbor_access_fraction);
    EXPECT_DOUBLE_EQ(m.global_access_fraction, g.global_access_fraction);
    EXPECT_EQ(m.demotions, g.demotions);
    EXPECT_EQ(m.promotions, g.promotions);
  }
}

TEST_F(SharedNeighborsTest, NeighborDrawsRecoverTheRejections) {
  // The headline claim: strict locality sheds a large slice of this
  // workload (the rack-local pathology), and letting racks borrow from a
  // neighbor pool — one hop further, β between rack and global — recovers
  // most of it without a fatter global tier.
  const RunMetrics& local = result_for(Arm::kLocalFirst);
  const RunMetrics& shared = result_for(Arm::kSharedNeighbors);
  // The baseline really is pathological (≈10% of the workload shed)...
  EXPECT_GT(local.rejected * 10, local.completed);
  // ...strict locality never touches a foreign rack pool...
  EXPECT_EQ(local.neighbor_access_fraction, 0.0);
  // ...and the neighbor tier recovers most of the shed jobs.
  EXPECT_GT(shared.neighbor_access_fraction, 0.0);
  EXPECT_LT(shared.rejected * 2, local.rejected);
  EXPECT_GT(shared.completed, local.completed);
}

TEST_F(SharedNeighborsTest, ThirdBetaCoefficientIsLoadBearing) {
  // Pricing neighbor bytes at β_global (flat two-tier pricing) must change
  // the run: dilation-aware admission makes different choices, so the two
  // arms genuinely diverge. The neighbor grade is a modelling decision
  // with consequences, not a relabelled global draw.
  const RunMetrics& graded = result_for(Arm::kSharedNeighbors);
  const RunMetrics& flat = result_for(Arm::kFlatBeta);
  EXPECT_NE(graded.makespan.usec(), flat.makespan.usec());
  EXPECT_NE(graded.mean_dilation, flat.mean_dilation);
  // Flat pricing dilates neighbor-heavy jobs more on average.
  EXPECT_GT(flat.mean_dilation, graded.mean_dilation);
}

TEST_F(SharedNeighborsTest, MigrationArmActuallyMigrates) {
  // The migration arm ran with audit_cluster on, so reaching here at all
  // means every demote/promote retier kept the ledgers consistent. Pin
  // that the knobs produce real traffic, in both directions.
  const RunMetrics& migrated = result_for(Arm::kMigration);
  EXPECT_GT(migrated.demotions, 0u);
  EXPECT_GT(migrated.promotions, 0u);
  EXPECT_GT(migrated.migrations_per_hour, 0.0);
  // The stationary arms never move a byte.
  EXPECT_EQ(result_for(Arm::kSharedNeighbors).demotions, 0u);
  EXPECT_EQ(result_for(Arm::kSharedNeighbors).promotions, 0u);
}

TEST_F(SharedNeighborsTest, SweepIsThreadCountInvariant) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto parallel =
      run_sweep_on_trace(*configs_, scenario_->trace, {.threads = hw});
  ASSERT_EQ(parallel.size(), serial_->size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE(arm_name(kGolden[i].arm));
    EXPECT_EQ((*serial_)[i].makespan.usec(), parallel[i].makespan.usec());
    EXPECT_EQ((*serial_)[i].mean_wait_hours, parallel[i].mean_wait_hours);
    EXPECT_EQ((*serial_)[i].neighbor_access_fraction,
              parallel[i].neighbor_access_fraction);
    EXPECT_EQ((*serial_)[i].demotions, parallel[i].demotions);
    EXPECT_EQ((*serial_)[i].promotions, parallel[i].promotions);
  }
}

TEST_F(SharedNeighborsTest, WritesComparisonCsv) {
  // The CI artifact: one row per arm on shared-neighbors.
  CsvWriter csv("shared_neighbors.csv");
  ASSERT_TRUE(csv.ok());
  csv.header({"scenario", "scheduler", "arm", "makespan_h", "mean_wait_h",
              "mean_bsld", "mean_dilation", "remote_access",
              "neighbor_access", "global_access", "completed", "rejected",
              "demotions", "promotions", "migrations_per_hour"});
  for (std::size_t i = 0; i < serial_->size(); ++i) {
    const RunMetrics& m = (*serial_)[i];
    csv.add(scenario_->info.name)
        .add("mem-easy")
        .add(arm_name(kGolden[i].arm))
        .add(m.makespan.hours())
        .add(m.mean_wait_hours)
        .add(m.mean_bsld)
        .add(m.mean_dilation)
        .add(m.remote_access_fraction)
        .add(m.neighbor_access_fraction)
        .add(m.global_access_fraction)
        .add(static_cast<std::size_t>(m.completed))
        .add(static_cast<std::size_t>(m.rejected))
        .add(static_cast<std::size_t>(m.demotions))
        .add(static_cast<std::size_t>(m.promotions))
        .add(m.migrations_per_hour);
    csv.end_row();
  }
}

}  // namespace
}  // namespace dmsched
