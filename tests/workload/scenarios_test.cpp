// The scenario registry: name resolution, the unknown-name error path,
// determinism of every scenario across constructions, and parameter
// overrides. Engine-level properties (policy discrimination, golden pins)
// live in tests/golden/.
#include "workload/scenarios.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/input_error.hpp"

#include "workload/swf.hpp"

namespace dmsched {
namespace {

/// Params for registry-wide loops: infrastructure scenarios default to
/// scale-sized workloads (large-replay 100k, million-replay 10^6 jobs), so
/// loops that only probe determinism or machine shape cap them small.
ScenarioParams loop_params(const std::string& name) {
  ScenarioParams p;
  if (scenario_info(name).infrastructure) p.jobs = 2000;
  return p;
}

void expect_same_trace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "job " << i);
    EXPECT_EQ(a.jobs()[i].id, b.jobs()[i].id);
    EXPECT_EQ(a.jobs()[i].submit.usec(), b.jobs()[i].submit.usec());
    EXPECT_EQ(a.jobs()[i].nodes, b.jobs()[i].nodes);
    EXPECT_EQ(a.jobs()[i].mem_per_node, b.jobs()[i].mem_per_node);
    EXPECT_EQ(a.jobs()[i].runtime.usec(), b.jobs()[i].runtime.usec());
    EXPECT_EQ(a.jobs()[i].walltime.usec(), b.jobs()[i].walltime.usec());
    EXPECT_EQ(a.jobs()[i].sensitivity, b.jobs()[i].sensitivity);
    EXPECT_EQ(a.jobs()[i].user, b.jobs()[i].user);
    EXPECT_EQ(a.jobs()[i].gpus_per_node, b.jobs()[i].gpus_per_node);
    EXPECT_EQ(a.jobs()[i].bb_bytes, b.jobs()[i].bb_bytes);
  }
}

TEST(ScenarioRegistry, ListsTheStandardLibrary) {
  const auto names = scenario_names();
  const std::vector<std::string> expected = {
      "golden-baseline",  "memory-stressed",  "pool-contended",
      "bursty-arrivals",  "wide-jobs",        "rack-local",
      "shared-neighbors", "tiered-contended", "gpu-contended",
      "bb-staging",       "mixed-swf",        "large-replay",
      "million-replay"};
  EXPECT_EQ(names, expected);
  for (const std::string& name : names) {
    EXPECT_TRUE(scenario_exists(name)) << name;
    const ScenarioInfo& info = scenario_info(name);
    EXPECT_EQ(info.name, name);
    EXPECT_FALSE(info.summary.empty()) << name;
    EXPECT_FALSE(info.paper_figure.empty()) << name;
    EXPECT_FALSE(info.expected_ordering.empty()) << name;
  }
}

TEST(ScenarioRegistry, UnknownNameThrowsListingKnownNames) {
  EXPECT_FALSE(scenario_exists("no-such-scenario"));
  EXPECT_THROW((void)scenario_info("no-such-scenario"), std::invalid_argument);
  try {
    (void)make_scenario("no-such-scenario");
    FAIL() << "make_scenario must throw for unknown names";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos);
    // The message must teach the caller the valid names.
    EXPECT_NE(what.find("memory-stressed"), std::string::npos);
    EXPECT_NE(what.find("golden-baseline"), std::string::npos);
  }
}

TEST(ScenarioRegistry, EveryScenarioIsDeterministic) {
  for (const std::string& name : scenario_names()) {
    SCOPED_TRACE(name);
    const ScenarioParams p = loop_params(name);
    const Scenario a = make_scenario(name, p);
    const Scenario b = make_scenario(name, p);
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.cluster.total_nodes, b.cluster.total_nodes);
    EXPECT_EQ(a.cluster.nodes_per_rack, b.cluster.nodes_per_rack);
    EXPECT_EQ(a.cluster.local_mem_per_node, b.cluster.local_mem_per_node);
    EXPECT_EQ(a.cluster.pool_per_rack, b.cluster.pool_per_rack);
    EXPECT_EQ(a.cluster.global_pool, b.cluster.global_pool);
    EXPECT_EQ(a.workload_reference_mem, b.workload_reference_mem);
    expect_same_trace(a.trace, b.trace);
  }
}

TEST(ScenarioRegistry, EveryScenarioShapeIsValid) {
  for (const std::string& name : scenario_names()) {
    SCOPED_TRACE(name);
    const Scenario s = make_scenario(name, loop_params(name));
    s.cluster.validate();  // aborts on degenerate shapes
    EXPECT_GT(s.trace.size(), 0u);
    EXPECT_FALSE(s.workload_reference_mem.is_zero());
  }
}

TEST(ScenarioParamsTest, JobCountOverrideApplies) {
  const Scenario s = make_scenario("memory-stressed", {.jobs = 50});
  EXPECT_EQ(s.trace.size(), 50u);
  const Scenario swf = make_scenario("mixed-swf", {.jobs = 30});
  EXPECT_EQ(swf.trace.size(), 30u);
  // Replication rounds up to whole copies, then truncates.
  const Scenario swf2 = make_scenario("mixed-swf", {.jobs = 45});
  EXPECT_EQ(swf2.trace.size(), 45u);
}

TEST(ScenarioParamsTest, SeedOverrideChangesSyntheticWorkloads) {
  const Scenario a = make_scenario("memory-stressed");
  const Scenario b = make_scenario("memory-stressed", {.seed = 999});
  ASSERT_EQ(a.trace.size(), b.trace.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    if (a.trace.jobs()[i].runtime != b.trace.jobs()[i].runtime ||
        a.trace.jobs()[i].nodes != b.trace.jobs()[i].nodes) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ScenarioParamsTest, DefaultParamsAreTheDocumentedDefaults) {
  // Zero-valued params must reproduce the published scenario exactly.
  const Scenario a = make_scenario("golden-baseline");
  const Scenario b = make_scenario("golden-baseline", ScenarioParams{});
  expect_same_trace(a.trace, b.trace);
}

TEST(ScenarioParamsTest, UnitScaleReproducesThePublishedScenario) {
  // 0 is the sentinel and 1.0 the explicit default; both must be
  // byte-identical to the published machine and workload (golden safety).
  for (const std::string& name : scenario_names()) {
    SCOPED_TRACE(name);
    ScenarioParams unit = loop_params(name);
    unit.node_scale = 1.0;
    unit.pool_scale = 1.0;
    const Scenario a = make_scenario(name, loop_params(name));
    const Scenario b = make_scenario(name, unit);
    EXPECT_EQ(a.cluster.total_nodes, b.cluster.total_nodes);
    EXPECT_EQ(a.cluster.pool_per_rack, b.cluster.pool_per_rack);
    EXPECT_EQ(a.cluster.global_pool, b.cluster.global_pool);
    expect_same_trace(a.trace, b.trace);
  }
}

TEST(ScenarioParamsTest, NodeScaleSnapsToWholeRacks) {
  const Scenario base = make_scenario("memory-stressed");          // 32 nodes
  const Scenario doubled =
      make_scenario("memory-stressed", {.node_scale = 2.0});       // 64
  EXPECT_EQ(doubled.cluster.total_nodes, base.cluster.total_nodes * 2);
  EXPECT_EQ(doubled.cluster.nodes_per_rack, base.cluster.nodes_per_rack);
  doubled.cluster.validate();
  // A fractional scale snaps to whole racks: 32 × 1.3 = 41.6 → 5 racks × 8.
  const Scenario odd = make_scenario("memory-stressed", {.node_scale = 1.3});
  EXPECT_EQ(odd.cluster.total_nodes % odd.cluster.nodes_per_rack, 0);
  EXPECT_EQ(odd.cluster.total_nodes, 40);
  // Scaling down never drops below one rack.
  const Scenario tiny = make_scenario("memory-stressed", {.node_scale = 0.01});
  EXPECT_EQ(tiny.cluster.total_nodes, tiny.cluster.nodes_per_rack);
}

TEST(ScenarioParamsTest, NodeScaleAdaptsTheWorkloadToTheMachine) {
  // The knob exists for capacity planning: the workload must be re-derived
  // against the scaled machine, not replayed verbatim from the published
  // one. Offered load is normalized by machine size, so it should be in
  // the same regime at both scales while the traces differ.
  const Scenario base = make_scenario("memory-stressed");
  const Scenario big = make_scenario("memory-stressed", {.node_scale = 4.0});
  ASSERT_EQ(base.trace.size(), big.trace.size());
  EXPECT_NEAR(big.trace.offered_load(big.cluster.total_nodes),
              base.trace.offered_load(base.cluster.total_nodes), 0.25);
  bool any_difference = false;
  for (std::size_t i = 0; i < base.trace.size(); ++i) {
    if (base.trace.jobs()[i].nodes != big.trace.jobs()[i].nodes ||
        base.trace.jobs()[i].submit.usec() != big.trace.jobs()[i].submit.usec()) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference) << "workload ignored the scaled machine";
}

TEST(ScenarioParamsTest, PoolScaleScalesBothPoolTiers) {
  const Scenario base = make_scenario("memory-stressed");
  const Scenario half =
      make_scenario("memory-stressed", {.pool_scale = 0.5});
  EXPECT_EQ(half.cluster.pool_per_rack, base.cluster.pool_per_rack / 2);
  EXPECT_EQ(half.cluster.global_pool, base.cluster.global_pool / 2);
  EXPECT_EQ(half.cluster.total_nodes, base.cluster.total_nodes);
  EXPECT_EQ(half.cluster.local_mem_per_node, base.cluster.local_mem_per_node);
  // A poolless scenario stays poolless at any scale.
  const Scenario contended =
      make_scenario("pool-contended", {.pool_scale = 3.0});
  EXPECT_TRUE(contended.cluster.global_pool.is_zero());
}

TEST(ScenarioParamsTest, ScaleFactorsAreDeterministic) {
  const ScenarioParams params{.node_scale = 2.0, .pool_scale = 1.5};
  const Scenario a = make_scenario("bursty-arrivals", params);
  const Scenario b = make_scenario("bursty-arrivals", params);
  EXPECT_EQ(a.cluster.total_nodes, b.cluster.total_nodes);
  EXPECT_EQ(a.cluster.pool_per_rack, b.cluster.pool_per_rack);
  expect_same_trace(a.trace, b.trace);
}

TEST(ScenarioParamsTest, NegativeScaleFactorsThrow) {
  EXPECT_THROW(
      (void)make_scenario("memory-stressed", {.node_scale = -1.0}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)make_scenario("memory-stressed", {.pool_scale = -0.5}),
      std::invalid_argument);
}

TEST(TopologyKnobs, RacksReRacksPreservingRackTierBytes) {
  const Scenario base = make_scenario("tiered-contended");  // 8 racks × 8
  const Scenario wide = make_scenario("tiered-contended", {.racks = 4});
  EXPECT_EQ(wide.cluster.racks(), 4);
  EXPECT_EQ(wide.cluster.total_nodes, base.cluster.total_nodes);
  // Total rack-tier bytes and the global tier are preserved.
  EXPECT_EQ(wide.cluster.pool_per_rack * wide.cluster.racks(),
            base.cluster.pool_per_rack * base.cluster.racks());
  EXPECT_EQ(wide.cluster.global_pool, base.cluster.global_pool);
  // The workload re-derives against the same node count — identical trace.
  expect_same_trace(base.trace, wide.trace);
}

TEST(TopologyKnobs, RacksMustDivideTheNodeCount) {
  // 64 nodes cannot form 7 equal racks.
  EXPECT_THROW((void)make_scenario("tiered-contended", {.racks = 7}),
               std::invalid_argument);
  EXPECT_THROW((void)make_scenario("tiered-contended", {.racks = -2}),
               std::invalid_argument);
}

TEST(TopologyKnobs, RackPoolFracResplitsTotalDisaggregatedCapacity) {
  const Scenario base = make_scenario("tiered-contended");
  const Bytes total = base.cluster.pool_per_rack * base.cluster.racks() +
                      base.cluster.global_pool;
  // All capacity to the global tier.
  const Scenario flat =
      make_scenario("tiered-contended", {.rack_pool_frac = 0.0});
  EXPECT_TRUE(flat.cluster.pool_per_rack.is_zero());
  EXPECT_EQ(flat.cluster.global_pool, total);
  // All capacity to the rack tier.
  const Scenario local =
      make_scenario("tiered-contended", {.rack_pool_frac = 1.0});
  EXPECT_TRUE(local.cluster.global_pool.is_zero());
  EXPECT_EQ(local.cluster.pool_per_rack * local.cluster.racks(), total);
  // A half split conserves total capacity.
  const Scenario half =
      make_scenario("tiered-contended", {.rack_pool_frac = 0.5});
  EXPECT_EQ(half.cluster.pool_per_rack * half.cluster.racks() +
                half.cluster.global_pool,
            total);
  // The negative sentinel keeps the published split byte-identical.
  const Scenario kept =
      make_scenario("tiered-contended", {.rack_pool_frac = -1.0});
  EXPECT_EQ(kept.cluster.pool_per_rack, base.cluster.pool_per_rack);
  EXPECT_EQ(kept.cluster.global_pool, base.cluster.global_pool);
}

TEST(TopologyKnobs, InvalidRackPoolFracThrows) {
  EXPECT_THROW(
      (void)make_scenario("tiered-contended", {.rack_pool_frac = 1.5}),
      std::invalid_argument);
}

TEST(TopologyKnobs, ZeroCapacityTierCombinationsThrow) {
  // A pool_scale that rounds a published tier to zero bytes must be loud:
  // the machine-scale validation satellite. (1e-12 of 96 GiB is 0 bytes.)
  EXPECT_THROW(
      (void)make_scenario("tiered-contended", {.pool_scale = 1e-12}),
      std::invalid_argument);
  // rack_pool_frac small enough to round per-rack pools to zero while still
  // requesting a rack tier.
  EXPECT_THROW(
      (void)make_scenario("tiered-contended", {.rack_pool_frac = 1e-13}),
      std::invalid_argument);
  // (A machine with no disaggregated capacity at all rejects any split —
  // covered against topology/apply directly in tests/topology/.)
}

TEST(TopologyKnobs, RemotePenaltyResolvesIntoTheScenario) {
  const Scenario base = make_scenario("tiered-contended");
  EXPECT_EQ(base.remote_penalty, 1.0);
  const Scenario harsh =
      make_scenario("tiered-contended", {.remote_penalty = 2.5});
  EXPECT_EQ(harsh.remote_penalty, 2.5);
  // The machine and workload are untouched — the penalty acts on the
  // slowdown model, not the trace.
  expect_same_trace(base.trace, harsh.trace);
  EXPECT_THROW(
      (void)make_scenario("tiered-contended", {.remote_penalty = -1.0}),
      std::invalid_argument);
}

TEST(ScenarioParamsTest, EveryBadKnobThrowsNamingItsField) {
  // One bad value per row, on golden-baseline (16 nodes in 4 racks). NaN
  // and infinity are rejected like negatives, never read as a sentinel, and
  // a scale past what the machine's counts can hold is rejected before it
  // wraps.
  const double nan = std::nan("");
  const std::vector<std::pair<std::string, ScenarioParams>> table = {
      {"load", {.load = nan}},
      {"node_scale", {.node_scale = -1.0}},
      {"node_scale", {.node_scale = nan}},
      {"node_scale", {.node_scale = 1e12}},
      {"pool_scale", {.pool_scale = -2.0}},
      {"pool_scale", {.pool_scale = INFINITY}},
      {"pool_scale", {.pool_scale = 1e300}},
      {"racks", {.racks = -1}},
      {"racks", {.racks = 7}},
      {"rack_pool_frac", {.rack_pool_frac = 2.0}},
      {"rack_pool_frac", {.rack_pool_frac = nan}},
      {"remote_penalty", {.remote_penalty = -1.0}},
      {"remote_penalty", {.remote_penalty = nan}},
      {"gpus_per_node", {.gpus_per_node = -1}},
      {"bb_capacity", {.bb_capacity = Bytes{-1}}},
  };
  for (const auto& [field, params] : table) {
    SCOPED_TRACE(field);
    for (const bool stream : {false, true}) {
      try {
        if (stream) {
          (void)make_scenario_stream("golden-baseline", params);
        } else {
          (void)make_scenario("golden-baseline", params);
        }
        ADD_FAILURE() << "accepted (stream " << stream << ")";
      } catch (const InputError& e) {
        EXPECT_EQ(e.field(), field) << e.what();
      }
    }
  }
  try {
    (void)make_scenario("no-such-scenario");
    ADD_FAILURE() << "accepted an unknown name";
  } catch (const InputError& e) {
    EXPECT_EQ(e.field(), "scenario");
  }
}

TEST(TopologyKnobs, KnobsAreDeterministic) {
  const ScenarioParams params{
      .racks = 4, .rack_pool_frac = 0.25, .remote_penalty = 1.5};
  const Scenario a = make_scenario("tiered-contended", params);
  const Scenario b = make_scenario("tiered-contended", params);
  EXPECT_EQ(a.cluster.nodes_per_rack, b.cluster.nodes_per_rack);
  EXPECT_EQ(a.cluster.pool_per_rack, b.cluster.pool_per_rack);
  EXPECT_EQ(a.cluster.global_pool, b.cluster.global_pool);
  EXPECT_EQ(a.remote_penalty, b.remote_penalty);
  expect_same_trace(a.trace, b.trace);
}

TEST(TieredContendedScenario, BothTiersPresentAndStressed) {
  const Scenario s = make_scenario("tiered-contended");
  EXPECT_FALSE(s.cluster.pool_per_rack.is_zero());
  EXPECT_FALSE(s.cluster.global_pool.is_zero());
  // Local memory scarce relative to the reference: a large population
  // overflows into the tiers (the regime where placement strategies
  // diverge).
  EXPECT_GT(s.workload_reference_mem, s.cluster.local_mem_per_node);
  std::size_t above_local = 0;
  for (const Job& j : s.trace.jobs()) {
    if (j.mem_per_node > s.cluster.local_mem_per_node) ++above_local;
  }
  EXPECT_GT(above_local, s.trace.size() / 4);
}

TEST(RackLocalScenario, HasNoGlobalTier) {
  const Scenario s = make_scenario("rack-local");
  EXPECT_FALSE(s.cluster.pool_per_rack.is_zero());
  EXPECT_TRUE(s.cluster.global_pool.is_zero());
  std::size_t above_local = 0;
  for (const Job& j : s.trace.jobs()) {
    if (j.mem_per_node > s.cluster.local_mem_per_node) ++above_local;
  }
  EXPECT_GT(above_local, 0u) << "rack pools are never exercised";
}

TEST(MixedSwfScenario, StressesLocalMemory) {
  const Scenario s = make_scenario("mixed-swf");
  std::size_t above_local = 0;
  for (const Job& j : s.trace.jobs()) {
    if (j.mem_per_node > s.cluster.local_mem_per_node) ++above_local;
  }
  EXPECT_GT(above_local, 0u) << "replay no longer needs the pools";
}

TEST(MixedSwfScenario, EmbeddedFixtureMatchesTheBundledSwfFile) {
  // The scenario embeds a copy of tests/data/sample.swf so it needs no file
  // path at runtime; this pins the copy to the on-disk fixture. Arrival
  // times are load-scaled by the scenario, so compare the shape fields.
  SwfOptions options;
  options.procs_per_node = 4;
  const SwfResult file =
      read_swf_file(std::string(DMSCHED_TEST_DATA_DIR) + "/sample.swf",
                    options);
  ASSERT_TRUE(file.ok()) << file.error;
  const Scenario s = make_scenario("mixed-swf", {.jobs = 30});
  ASSERT_EQ(s.trace.size(), file.trace.size());
  for (std::size_t i = 0; i < s.trace.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "job " << i);
    EXPECT_EQ(s.trace.jobs()[i].nodes, file.trace.jobs()[i].nodes);
    EXPECT_EQ(s.trace.jobs()[i].mem_per_node,
              file.trace.jobs()[i].mem_per_node);
    EXPECT_EQ(s.trace.jobs()[i].runtime.usec(),
              file.trace.jobs()[i].runtime.usec());
    EXPECT_EQ(s.trace.jobs()[i].walltime.usec(),
              file.trace.jobs()[i].walltime.usec());
    EXPECT_EQ(s.trace.jobs()[i].user, file.trace.jobs()[i].user);
  }
}

/// The SWF replay rebuilt from the on-disk fixture, independently of the
/// scenario code: copy k of the day shifted by k * 7200 s, truncated to
/// `jobs`, then arrival gaps scaled by offered_load / load about the epoch.
Trace swf_replay_oracle(std::size_t jobs, double load, std::int32_t nodes) {
  SwfOptions options;
  options.procs_per_node = 4;
  const SwfResult day =
      read_swf_file(std::string(DMSCHED_TEST_DATA_DIR) + "/sample.swf",
                    options);
  EXPECT_TRUE(day.ok()) << day.error;
  std::vector<Job> tiled;
  for (std::int64_t k = 0; tiled.size() < jobs; ++k) {
    for (Job j : day.trace.jobs()) {
      if (tiled.size() == jobs) break;
      j.submit += seconds(7200 * k);
      tiled.push_back(j);
    }
  }
  const Trace unscaled = Trace::make(tiled, "oracle");
  const double factor = unscaled.offered_load(nodes) / load;
  const SimTime epoch = unscaled.jobs().front().submit;
  for (Job& j : tiled) j.submit = epoch + (j.submit - epoch).scaled(factor);
  return Trace::make(std::move(tiled), "oracle");
}

TEST(SwfReplayScenarios, MatchAnIndependentTilingOfTheFixture) {
  // No golden pins the replay scenarios' jobs, and their eager build drains
  // the same source the stream does, so this oracle is what pins the tiling
  // period, the truncation and the arrival scaling.
  const Scenario large = make_scenario("large-replay", {.jobs = 95});
  expect_same_trace(large.trace,
                    swf_replay_oracle(95, 0.8, large.cluster.total_nodes));
  const Scenario swf = make_scenario("mixed-swf", {.load = 0.7});
  expect_same_trace(swf.trace,
                    swf_replay_oracle(240, 0.7, swf.cluster.total_nodes));
}

TEST(LargeReplayScenario, DefaultsToProductionScale) {
  // The scenario exists to replay 10^5-job traces; its default is what
  // `dmsched-sim --scenario large-replay` runs, so it must stay at that
  // scale.
  const Scenario s = make_scenario("large-replay");
  EXPECT_GE(s.trace.size(), 100000u);
  // Below saturation by design: throughput measures the event core, not a
  // scheduler walking an unbounded backlog.
  EXPECT_LT(s.trace.offered_load(s.cluster.total_nodes), 1.0);
}

TEST(LargeReplayScenario, SharesTheMixedSwfMachineAndDay) {
  // Same machine shape and the same bundled day as mixed-swf — only the
  // replication depth and the load target differ. Submit times are
  // load-scaled, so compare the shape fields of the first base period.
  const Scenario large = make_scenario("large-replay", {.jobs = 30});
  const Scenario swf = make_scenario("mixed-swf", {.jobs = 30});
  EXPECT_EQ(large.cluster.total_nodes, swf.cluster.total_nodes);
  EXPECT_EQ(large.cluster.nodes_per_rack, swf.cluster.nodes_per_rack);
  EXPECT_EQ(large.cluster.local_mem_per_node, swf.cluster.local_mem_per_node);
  EXPECT_EQ(large.cluster.pool_per_rack, swf.cluster.pool_per_rack);
  EXPECT_EQ(large.cluster.global_pool, swf.cluster.global_pool);
  ASSERT_EQ(large.trace.size(), swf.trace.size());
  for (std::size_t i = 0; i < large.trace.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "job " << i);
    EXPECT_EQ(large.trace.jobs()[i].nodes, swf.trace.jobs()[i].nodes);
    EXPECT_EQ(large.trace.jobs()[i].mem_per_node,
              swf.trace.jobs()[i].mem_per_node);
    EXPECT_EQ(large.trace.jobs()[i].runtime.usec(),
              swf.trace.jobs()[i].runtime.usec());
    EXPECT_EQ(large.trace.jobs()[i].walltime.usec(),
              swf.trace.jobs()[i].walltime.usec());
  }
}

TEST(LargeReplayScenario, CappedBuildsAreCheapAndExact) {
  // bench/sim_throughput, the golden smoke test and the deep-backlog
  // incremental-contract case replay capped prefixes; the cap must hit the
  // requested size exactly at any value.
  for (const std::size_t jobs : {1000u, 2500u, 10000u}) {
    SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
    const Scenario s = make_scenario(
        "large-replay", {.jobs = jobs});
    EXPECT_EQ(s.trace.size(), jobs);
  }
}

TEST(MemoryStressedScenario, LocalMemoryIsScarce) {
  const Scenario s = make_scenario("memory-stressed");
  // The scenario's whole point: reference memory well above the machine's
  // local memory, so a large population needs the pools.
  EXPECT_GT(s.workload_reference_mem, s.cluster.local_mem_per_node * 2);
  std::size_t above_local = 0;
  for (const Job& j : s.trace.jobs()) {
    if (j.mem_per_node > s.cluster.local_mem_per_node) ++above_local;
  }
  EXPECT_GT(above_local, s.trace.size() / 4);
}

TEST(BurstyArrivalsScenario, ArrivalsLandOnBurstBoundaries) {
  const Scenario s = make_scenario("bursty-arrivals");
  constexpr std::int64_t kBurstUsec = std::int64_t{2} * 3600 * 1'000'000;
  for (const Job& j : s.trace.jobs()) {
    EXPECT_EQ(j.submit.usec() % kBurstUsec, 0)
        << "job " << j.id << " submits off-boundary";
  }
  // More than one burst, or the scenario degenerated into a single spike.
  EXPECT_GT(s.trace.span().usec(), 0);
}

TEST(ResourceKnobs, GpuAndBbOverridesReshapeOnlyTheMachine) {
  const Scenario base = make_scenario("tiered-contended");
  EXPECT_EQ(base.cluster.gpus_per_node, 0);
  EXPECT_TRUE(base.cluster.bb_capacity.is_zero());
  const Scenario modded = make_scenario(
      "tiered-contended",
      {.gpus_per_node = 2, .bb_capacity = gib(std::int64_t{64})});
  EXPECT_EQ(modded.cluster.gpus_per_node, 2);
  EXPECT_EQ(modded.cluster.bb_capacity, gib(std::int64_t{64}));
  EXPECT_TRUE(modded.cluster.has_gpus());
  EXPECT_TRUE(modded.cluster.has_burst_buffer());
  // The workload is untouched: provisioning knobs act on the machine, not
  // the trace (no legacy job grows a GPU or BB demand).
  expect_same_trace(base.trace, modded.trace);
  for (const Job& j : modded.trace.jobs()) {
    EXPECT_EQ(j.gpus_per_node, 0);
    EXPECT_TRUE(j.bb_bytes.is_zero());
  }
}

TEST(ResourceKnobs, NegativeValuesThrow) {
  EXPECT_THROW(
      (void)make_scenario("tiered-contended", {.gpus_per_node = -1}),
      std::invalid_argument);
  EXPECT_THROW((void)make_scenario("tiered-contended",
                                   {.bb_capacity = Bytes{-1}}),
               std::invalid_argument);
}

TEST(GpuContendedScenario, ProvisionsRackPooledGpusAndDecoratesJobs) {
  const Scenario s = make_scenario("gpu-contended");
  EXPECT_EQ(s.cluster.gpus_per_node, 4);
  EXPECT_TRUE(s.cluster.has_gpus());
  EXPECT_FALSE(s.cluster.has_burst_buffer());
  std::size_t gpu_jobs = 0;
  std::size_t over_provisioned = 0;
  for (const Job& j : s.trace.jobs()) {
    EXPECT_TRUE(j.gpus_per_node == 0 || j.gpus_per_node == 4 ||
                j.gpus_per_node == 8)
        << "job " << j.id << " has unexpected demand " << j.gpus_per_node;
    EXPECT_TRUE(j.bb_bytes.is_zero());
    if (j.gpus_per_node > 0) ++gpu_jobs;
    if (j.gpus_per_node > s.cluster.gpus_per_node) {
      ++over_provisioned;
      // The over-provisioned class is width-capped so it stays feasible on
      // the empty machine (8 nodes × 8 GPUs = 64 < 128 devices).
      EXPECT_LE(j.nodes, 8);
      EXPECT_LE(j.total_gpus(), s.cluster.total_gpus());
    }
  }
  // The decoration must actually bite: a large accelerator population, some
  // of it demanding beyond per-node provisioning (the contention source).
  EXPECT_GT(gpu_jobs, s.trace.size() / 3);
  EXPECT_GT(over_provisioned, 0u);
  EXPECT_LT(gpu_jobs, s.trace.size());  // CPU-only jobs remain
}

TEST(BbStagingScenario, ReservesBoundedBurstBuffer) {
  const Scenario s = make_scenario("bb-staging");
  EXPECT_EQ(s.cluster.bb_capacity, gib(std::int64_t{256}));
  EXPECT_TRUE(s.cluster.has_burst_buffer());
  EXPECT_FALSE(s.cluster.has_gpus());
  std::size_t staging = 0;
  for (const Job& j : s.trace.jobs()) {
    EXPECT_EQ(j.gpus_per_node, 0);
    // Per-job reservations are capped below capacity so no job is rejected
    // outright — contention, not infeasibility, is the scenario's point.
    EXPECT_LE(j.bb_bytes, gib(std::int64_t{128}));
    EXPECT_LT(j.bb_bytes, s.cluster.bb_capacity);
    if (!j.bb_bytes.is_zero()) ++staging;
  }
  EXPECT_GT(staging, s.trace.size() / 6);
  EXPECT_LT(staging, s.trace.size());  // non-staging jobs remain
}

}  // namespace
}  // namespace dmsched
