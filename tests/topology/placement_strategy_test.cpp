// The named placement strategies and the edge cases the topology studies
// lean on: rack-exhaustion fallback to the global tier, strict locality
// refusing it, deterministic tie-breaking across equal-headroom racks, and
// allocation/release accounting invariants under churn.
#include "topology/placement_policy.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "memory/placement.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::machine;

TEST(PlacementStrategy, NamesRoundTrip) {
  for (const PlacementStrategy s : all_placement_strategies()) {
    const auto parsed = placement_strategy_from_string(to_string(s));
    ASSERT_TRUE(parsed.has_value()) << to_string(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(placement_strategy_from_string("nearest-first").has_value());
  EXPECT_FALSE(placement_strategy_from_string("").has_value());
}

TEST(PlacementStrategy, ResolvesToDocumentedPolicies) {
  const PlacementPolicy local = make_placement(PlacementStrategy::kLocalFirst);
  EXPECT_EQ(local.selection, NodeSelection::kPoolAware);
  EXPECT_EQ(local.routing, PoolRouting::kRackOnly);
  const PlacementPolicy balanced = make_placement(PlacementStrategy::kBalanced);
  EXPECT_EQ(balanced.selection, NodeSelection::kSpreadRacks);
  EXPECT_EQ(balanced.routing, PoolRouting::kRackThenGlobal);
  const PlacementPolicy fallback =
      make_placement(PlacementStrategy::kGlobalFallback);
  EXPECT_EQ(fallback.selection, NodeSelection::kPoolAware);
  EXPECT_EQ(fallback.routing, PoolRouting::kRackThenGlobal);
  // global-fallback IS the engine default, named.
  EXPECT_EQ(fallback.selection, PlacementPolicy{}.selection);
  EXPECT_EQ(fallback.routing, PlacementPolicy{}.routing);
}

// 8 nodes in 2 racks of 4; 16 GiB local, 32 GiB pool per rack, 64 GiB
// global. A job at 24 GiB/node carries an 8 GiB/node deficit.
ClusterConfig tiered_machine() { return machine(8, 16.0, 32.0, 64.0); }

TEST(PlacementEdgeCases, RackExhaustionFallsBackToTheGlobalTier) {
  const ClusterConfig config = tiered_machine();
  ResourceState state = empty_state(config);
  // Drain both rack pools to 8 GiB each: a 4-node deficit job (32 GiB of
  // far memory) cannot be funded by rack pools alone.
  state.pool_free[0] = gib(std::int64_t{8});
  state.pool_free[1] = gib(std::int64_t{8});
  state.recount();
  const Job j = job(0).nodes(4).mem_gib(24.0);

  // global-fallback: the rack pool funds what it can (one node), the
  // global tier funds the rest — the job starts.
  const auto fallback =
      compute_take(state, config, j,
                   make_placement(PlacementStrategy::kGlobalFallback));
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->node_total(), 4);
  EXPECT_EQ(fallback->rack_pool_total(), gib(std::int64_t{8}));
  EXPECT_EQ(fallback->global_total(), gib(std::int64_t{24}));

  // local-first: strict locality refuses the global tier — no start.
  const auto local = compute_take(
      state, config, j, make_placement(PlacementStrategy::kLocalFirst));
  EXPECT_FALSE(local.has_value());

  // With refilled rack pools local-first starts without global bytes.
  ResourceState refilled = empty_state(config);
  const auto local_ok = compute_take(
      refilled, config, j, make_placement(PlacementStrategy::kLocalFirst));
  ASSERT_TRUE(local_ok.has_value());
  EXPECT_TRUE(local_ok->global_total().is_zero());
  EXPECT_EQ(local_ok->rack_pool_total(), gib(std::int64_t{32}));
}

TEST(PlacementEdgeCases, EqualHeadroomRacksBreakTiesByIndex) {
  // Four racks, byte-identical headroom everywhere: every selection policy
  // must pick the lowest-index racks, and repeated evaluation must agree.
  const ClusterConfig config = machine(16, 16.0, 32.0, 64.0);
  const ResourceState state = empty_state(config);
  const Job narrow = job(0).nodes(4).mem_gib(24.0);
  for (const PlacementStrategy s : all_placement_strategies()) {
    SCOPED_TRACE(to_string(s));
    const auto plan = compute_take(state, config, narrow, make_placement(s));
    ASSERT_TRUE(plan.has_value());
    ASSERT_FALSE(plan->takes.empty());
    EXPECT_EQ(plan->takes.front().rack, 0) << "tie must break to rack 0";
    // Determinism: the same inputs give the same plan, take for take.
    const auto again = compute_take(state, config, narrow, make_placement(s));
    ASSERT_TRUE(again.has_value());
    ASSERT_EQ(again->takes.size(), plan->takes.size());
    for (std::size_t i = 0; i < plan->takes.size(); ++i) {
      EXPECT_EQ(again->takes[i].rack, plan->takes[i].rack);
      EXPECT_EQ(again->takes[i].nodes, plan->takes[i].nodes);
      EXPECT_EQ(again->takes[i].rack_pool_bytes,
                plan->takes[i].rack_pool_bytes);
      EXPECT_EQ(again->takes[i].global_pool_bytes,
                plan->takes[i].global_pool_bytes);
    }
  }
}

TEST(PlacementEdgeCases, UnequalHeadroomBeatsIndexOrderForDeficitJobs) {
  // Pool-aware deficit placement chases the pool-rich rack even when it has
  // a higher index; equal-headroom determinism (above) is the tie case.
  const ClusterConfig config = machine(8, 16.0, 32.0, 0.0);
  ResourceState state = empty_state(config);
  state.pool_free[0] = gib(std::int64_t{8});
  state.recount();
  const Job j = job(0).nodes(2).mem_gib(24.0);
  const auto plan = compute_take(
      state, config, j, make_placement(PlacementStrategy::kGlobalFallback));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->takes.front().rack, 1);
}

TEST(PlacementEdgeCases, AllocationReleaseAccountingSurvivesChurn) {
  // Deterministic churn: plan/apply a few hundred jobs against a live
  // state, releasing half of them as we go, then release everything and
  // require the state to return to empty *exactly*. Catches asymmetric
  // apply/release bookkeeping and any negative-capacity transient (Bytes
  // asserts on underflow).
  const ClusterConfig config = machine(16, 16.0, 32.0, 64.0);
  const ResourceState empty = empty_state(config);
  ResourceState state = empty;
  Rng rng(4242);
  std::vector<TakePlan> live;
  const std::vector<PlacementStrategy> strategies = all_placement_strategies();
  for (int step = 0; step < 400; ++step) {
    const Job j = job(static_cast<JobId>(step))
                      .nodes(static_cast<std::int32_t>(rng.uniform_int(1, 6)))
                      .mem_gib(rng.uniform(4.0, 40.0));
    const PlacementStrategy s =
        strategies[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(strategies.size()) - 1))];
    const auto plan = compute_take(state, config, j, make_placement(s));
    if (plan) {
      ASSERT_TRUE(can_apply(state, *plan));
      apply_take(state, *plan);
      live.push_back(*plan);
    }
    // Churn: release a random live plan half the time.
    if (!live.empty() && rng.uniform(0.0, 1.0) < 0.5) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      release_take(state, live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    // Invariants: nothing exceeds capacity, nothing goes negative.
    ASSERT_LE(state.total_free_nodes(), config.total_nodes);
    for (std::size_t r = 0; r < state.pool_free.size(); ++r) {
      ASSERT_LE(state.pool_free[r], config.pool_per_rack) << "rack " << r;
    }
    ASSERT_LE(state.global_free, config.global_pool);
  }
  for (const TakePlan& plan : live) release_take(state, plan);
  EXPECT_EQ(state.free_nodes, empty.free_nodes);
  EXPECT_EQ(state.pool_free, empty.pool_free);
  EXPECT_EQ(state.global_free, empty.global_free);
}

}  // namespace
}  // namespace dmsched
