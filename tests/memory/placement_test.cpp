#include "memory/placement.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::tiny_cluster;

// tiny_cluster: 4 racks × 4 nodes, 64 GiB local per node.

PlacementPolicy policy(NodeSelection sel = NodeSelection::kFirstFit,
                       PoolRouting route = PoolRouting::kRackThenGlobal) {
  return {sel, route};
}

TEST(Placement, SnapshotMatchesCluster) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{10})));
  const ResourceState s = snapshot(c);
  ASSERT_EQ(s.free_nodes.size(), 4u);
  EXPECT_EQ(s.total_free_nodes(), 16);
  EXPECT_EQ(s.pool_free[0], gib(std::int64_t{100}));
  EXPECT_EQ(s.global_free, gib(std::int64_t{10}));
}

TEST(Placement, LocalJobTakesNodesOnly) {
  const ClusterConfig cfg = tiny_cluster();
  const auto plan = compute_take(empty_state(cfg), cfg,
                                 job(0).nodes(3).mem_gib(32), policy());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->node_total(), 3);
  EXPECT_EQ(plan->local_per_node, gib(std::int64_t{32}));
  EXPECT_TRUE(plan->far_per_node.is_zero());
  EXPECT_TRUE(plan->rack_pool_total().is_zero());
  EXPECT_TRUE(plan->global_total().is_zero());
}

TEST(Placement, DeficitComesFromRackPool) {
  const ClusterConfig cfg = tiny_cluster(gib(std::int64_t{100}));
  const auto plan = compute_take(empty_state(cfg), cfg,
                                 job(0).nodes(2).mem_gib(80), policy());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->local_per_node, gib(std::int64_t{64}));
  EXPECT_EQ(plan->far_per_node, gib(std::int64_t{16}));
  EXPECT_EQ(plan->rack_pool_total(), gib(std::int64_t{32}));
  EXPECT_TRUE(plan->global_total().is_zero());
}

TEST(Placement, NoPoolMeansDeficitJobCannotStart) {
  const ClusterConfig cfg = tiny_cluster();  // no pools
  EXPECT_FALSE(compute_take(empty_state(cfg), cfg, job(0).mem_gib(80),
                            policy())
                   .has_value());
  EXPECT_FALSE(feasible_on_empty(cfg, job(0).mem_gib(80), policy()));
}

TEST(Placement, InsufficientNodesFails) {
  const ClusterConfig cfg = tiny_cluster();
  EXPECT_FALSE(compute_take(empty_state(cfg), cfg,
                            job(0).nodes(17).mem_gib(8), policy())
                   .has_value());
}

TEST(Placement, RackPoolTooSmallSpillsToGlobal) {
  // 20 GiB deficit per node; rack pool funds 1 node (25 GiB), global the rest.
  const ClusterConfig cfg =
      tiny_cluster(gib(std::int64_t{25}), gib(std::int64_t{1000}));
  const auto plan = compute_take(empty_state(cfg), cfg,
                                 job(0).nodes(4).mem_gib(84), policy());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->far_per_node, gib(std::int64_t{20}));
  // 4 nodes in one rack: 1 funded by rack pool (20 of 25), 3 by global
  EXPECT_EQ(plan->rack_pool_total(), gib(std::int64_t{20}));
  EXPECT_EQ(plan->global_total(), gib(std::int64_t{60}));
}

TEST(Placement, RackOnlyRoutingRefusesGlobal) {
  const ClusterConfig cfg =
      tiny_cluster(gib(std::int64_t{25}), gib(std::int64_t{1000}));
  const auto plan =
      compute_take(empty_state(cfg), cfg, job(0).nodes(4).mem_gib(84),
                   policy(NodeSelection::kFirstFit, PoolRouting::kRackOnly));
  // each rack funds one node; 4 racks × 1 node = enough nodes
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->global_total().is_zero());
  EXPECT_EQ(plan->takes.size(), 4u);  // spread across all racks
}

TEST(Placement, GlobalOnlyRoutingIgnoresRackPools) {
  const ClusterConfig cfg =
      tiny_cluster(gib(std::int64_t{1000}), gib(std::int64_t{100}));
  const auto plan =
      compute_take(empty_state(cfg), cfg, job(0).nodes(2).mem_gib(80),
                   policy(NodeSelection::kFirstFit, PoolRouting::kGlobalOnly));
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->rack_pool_total().is_zero());
  EXPECT_EQ(plan->global_total(), gib(std::int64_t{32}));
}

TEST(Placement, ApplyAndReleaseRoundTrip) {
  const ClusterConfig cfg = tiny_cluster(gib(std::int64_t{100}));
  ResourceState state = empty_state(cfg);
  const ResourceState before = state;
  const auto plan = compute_take(state, cfg, job(0).nodes(4).mem_gib(80),
                                 policy());
  ASSERT_TRUE(plan.has_value());
  apply_take(state, *plan);
  EXPECT_EQ(state.total_free_nodes(), 12);
  release_take(state, *plan);
  EXPECT_EQ(state.free_nodes, before.free_nodes);
  EXPECT_EQ(state.pool_free, before.pool_free);
  EXPECT_EQ(state.global_free, before.global_free);
}

TEST(Placement, ApplyOvercommitAborts) {
  const ClusterConfig cfg = tiny_cluster();
  ResourceState state = empty_state(cfg);
  const auto plan = compute_take(state, cfg, job(0).nodes(16).mem_gib(8),
                                 policy());
  ASSERT_TRUE(plan.has_value());
  apply_take(state, *plan);
  EXPECT_DEATH(apply_take(state, *plan), "overcommit");
}

TEST(Placement, PackRacksMinimizesRackCount) {
  const ClusterConfig cfg = tiny_cluster();
  ResourceState state = empty_state(cfg);
  state.free_nodes = {1, 4, 2, 3};  // rack 1 is emptiest
  state.recount();
  const auto plan = compute_take(state, cfg, job(0).nodes(4).mem_gib(8),
                                 policy(NodeSelection::kPackRacks));
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->takes.size(), 1u);
  EXPECT_EQ(plan->takes[0].rack, 1);
}

TEST(Placement, FirstFitWalksRackIndexOrder) {
  const ClusterConfig cfg = tiny_cluster();
  ResourceState state = empty_state(cfg);
  state.free_nodes = {1, 4, 2, 3};
  state.recount();
  const auto plan = compute_take(state, cfg, job(0).nodes(4).mem_gib(8),
                                 policy(NodeSelection::kFirstFit));
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->takes.size(), 2u);
  EXPECT_EQ(plan->takes[0].rack, 0);
  EXPECT_EQ(plan->takes[0].nodes, 1);
  EXPECT_EQ(plan->takes[1].rack, 1);
  EXPECT_EQ(plan->takes[1].nodes, 3);
}

TEST(Placement, PoolAwareDeficitJobChasesPoolRichRacks) {
  const ClusterConfig cfg = tiny_cluster(gib(std::int64_t{100}));
  ResourceState state = empty_state(cfg);
  state.pool_free = {gib(std::int64_t{5}), gib(std::int64_t{100}),
                     gib(std::int64_t{50}), gib(std::int64_t{5})};
  state.recount();
  const auto plan = compute_take(state, cfg, job(0).nodes(2).mem_gib(80),
                                 policy(NodeSelection::kPoolAware));
  ASSERT_TRUE(plan.has_value());
  ASSERT_GE(plan->takes.size(), 1u);
  EXPECT_EQ(plan->takes[0].rack, 1);  // richest pool first
}

TEST(Placement, PoolAwareLocalJobAvoidsPoolRichRacks) {
  const ClusterConfig cfg = tiny_cluster(gib(std::int64_t{100}));
  ResourceState state = empty_state(cfg);
  state.pool_free = {gib(std::int64_t{100}), gib(std::int64_t{0}),
                     gib(std::int64_t{50}), gib(std::int64_t{100})};
  state.recount();
  const auto plan = compute_take(state, cfg, job(0).nodes(2).mem_gib(8),
                                 policy(NodeSelection::kPoolAware));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->takes[0].rack, 1);  // poorest pool first for local jobs
}

TEST(Placement, MaterializeAssignsLowestFreeNodes) {
  Cluster c(tiny_cluster(gib(std::int64_t{100})));
  const Job j = job(7).nodes(3).mem_gib(80);
  const auto alloc = plan_start(c, j, policy());
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->job, 7u);
  EXPECT_EQ(alloc->nodes, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(alloc->far_per_node, gib(std::int64_t{16}));
  // commit must accept the materialized plan verbatim
  c.commit(*alloc);
  c.audit();
}

TEST(Placement, MaterializedGlobalDrawIsSingleEntry) {
  Cluster c(tiny_cluster(Bytes{0}, gib(std::int64_t{1000})));
  const Job j = job(3).nodes(4).mem_gib(80);
  const auto alloc = plan_start(c, j, policy());
  ASSERT_TRUE(alloc.has_value());
  std::size_t global_draws = 0;
  for (const auto& d : alloc->draws) {
    if (d.rack == kGlobalPoolRack) ++global_draws;
  }
  EXPECT_EQ(global_draws, 1u);
  c.commit(*alloc);
  c.audit();
}

TEST(Placement, PlanStartFailsCleanlyWhenFull) {
  Cluster c(tiny_cluster());
  const auto big = plan_start(c, job(0).nodes(16).mem_gib(8), policy());
  ASSERT_TRUE(big.has_value());
  c.commit(*big);
  EXPECT_FALSE(plan_start(c, job(1).nodes(1).mem_gib(8), policy()).has_value());
}

TEST(Placement, FeasibleOnEmptyMatchesComputeTake) {
  const ClusterConfig cfg = tiny_cluster(gib(std::int64_t{30}));
  const Job fits = job(0).nodes(4).mem_gib(70);     // deficit 6 × 4 = 24 < 30
  const Job too_big = job(1).nodes(4).mem_gib(200); // deficit 136 × 4
  EXPECT_TRUE(feasible_on_empty(cfg, fits, policy()));
  EXPECT_FALSE(feasible_on_empty(cfg, too_big, policy()));
}

TEST(Placement, ToStringCoverage) {
  EXPECT_STREQ(to_string(NodeSelection::kFirstFit), "first-fit");
  EXPECT_STREQ(to_string(NodeSelection::kPackRacks), "pack-racks");
  EXPECT_STREQ(to_string(NodeSelection::kSpreadRacks), "spread-racks");
  EXPECT_STREQ(to_string(NodeSelection::kPoolAware), "pool-aware");
  EXPECT_STREQ(to_string(PoolRouting::kRackOnly), "rack-only");
  EXPECT_STREQ(to_string(PoolRouting::kRackThenGlobal), "rack-then-global");
  EXPECT_STREQ(to_string(PoolRouting::kGlobalOnly), "global-only");
}

}  // namespace
}  // namespace dmsched
