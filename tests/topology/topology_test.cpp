// The Topology model: tier capacities and distances, headroom against
// counted states, TopologySpec reshaping (including every zero-capacity
// failure mode), and the flatten-to-global ablation.
#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cluster/cluster.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::machine;

TEST(TopologyModel, DefaultIsTheFlatSingleGlobalPoolShape) {
  // The degenerate default: one rack spanning the whole machine, no rack
  // tier — the shape every pre-topology config had.
  const Topology t;
  EXPECT_FALSE(t.has_rack_tier());
  EXPECT_TRUE(t.single_pool());
  EXPECT_TRUE(t.rack_tier_capacity().is_zero());
}

TEST(TopologyModel, TierCapacitiesComeFromTheConfig) {
  // 16 nodes in racks of 4, 64 GiB local, 32 GiB pool/rack, 128 GiB global.
  const Topology t(machine(16, 64.0, 32.0, 128.0));
  EXPECT_EQ(t.racks(), 4);
  EXPECT_EQ(t.nodes(), 16);
  EXPECT_EQ(t.rack_nodes(0), 4);
  EXPECT_EQ(t.rack_pool_capacity(2), gib(std::int64_t{32}));
  EXPECT_EQ(t.rack_tier_capacity(), gib(std::int64_t{128}));
  EXPECT_EQ(t.global_tier_capacity(), gib(std::int64_t{128}));
  EXPECT_TRUE(t.has_rack_tier());
  EXPECT_TRUE(t.has_global_tier());
  EXPECT_FALSE(t.single_pool());
}

TEST(TopologyModel, DistancesAreMonotoneInHops) {
  const Topology t(machine(16, 64.0, 32.0, 128.0));
  EXPECT_EQ(tier_distance(MemoryTier::kLocal), 0);
  EXPECT_EQ(tier_distance(MemoryTier::kRackPool), 1);
  EXPECT_EQ(tier_distance(MemoryTier::kNeighborPool), 2);
  EXPECT_EQ(tier_distance(MemoryTier::kGlobalPool), 3);
  EXPECT_EQ(t.rack_distance(1, 1), 0);
  EXPECT_EQ(t.rack_distance(0, 3), 1);
  EXPECT_EQ(t.rack_of(0), 0);
  EXPECT_EQ(t.rack_of(15), 3);
}

TEST(TopologyModel, HeadroomSumsTiersAcrossRacks) {
  const ClusterConfig config = machine(16, 64.0, 32.0, 128.0);
  const Topology t(config);
  ResourceState s = empty_state(config);
  TierHeadroom h = t.headroom(s);
  EXPECT_EQ(h.free_nodes, 16);
  EXPECT_EQ(h.rack_pool_free, gib(std::int64_t{128}));
  EXPECT_EQ(h.rack_pool_free_max, gib(std::int64_t{32}));
  EXPECT_EQ(h.global_free, gib(std::int64_t{128}));
  EXPECT_EQ(h.pool_free_total(), gib(std::int64_t{256}));

  // Uneven depletion: the max tracks the best-provisioned rack.
  s.pool_free[0] = gib(std::int64_t{4});
  s.pool_free[1] = gib(std::int64_t{20});
  s.free_nodes[2] = 0;
  s.recount();
  h = t.headroom(s);
  EXPECT_EQ(h.free_nodes, 12);
  EXPECT_EQ(h.rack_pool_free, gib(std::int64_t{4 + 20 + 32 + 32}));
  EXPECT_EQ(h.rack_pool_free_max, gib(std::int64_t{32}));
}

TEST(TopologyModel, LegacyMachinesGetNoResourceAxes) {
  // The no-regen contract at the state layer: on a machine provisioning no
  // GPUs/burst buffer, snapshots carry an *empty* free_gpus vector and zero
  // bb_free — byte-identical to the pre-resource-vector shape.
  const ClusterConfig config = machine(16, 64.0, 32.0, 128.0);
  const ResourceState s = empty_state(config);
  EXPECT_TRUE(s.free_gpus.empty());
  EXPECT_TRUE(s.bb_free.is_zero());
  EXPECT_EQ(s.free_gpus_in(0), 0);  // safe accessor off the end
  const Topology t(config);
  const TierHeadroom h = t.headroom(s);
  EXPECT_EQ(h.free_gpus, 0);
  EXPECT_TRUE(h.bb_free.is_zero());
}

TEST(TopologyModel, ResourceAxesFlowIntoStateAndHeadroom) {
  ClusterConfig config = machine(16, 64.0, 32.0, 128.0);
  config.gpus_per_node = 2;
  config.bb_capacity = gib(std::int64_t{50});
  ResourceState s = empty_state(config);
  ASSERT_EQ(s.free_gpus.size(), 4u);
  EXPECT_EQ(s.free_gpus_in(0), 8);  // 4 nodes × 2 devices, rack-pooled
  EXPECT_EQ(s.bb_free, gib(std::int64_t{50}));

  const Topology t(config);
  EXPECT_EQ(t.rack_gpu_capacity(0), 8);
  EXPECT_EQ(t.total_gpus(), 32);
  EXPECT_EQ(t.bb_capacity(), gib(std::int64_t{50}));

  // Depletion shows up in the summed headroom.
  s.free_gpus[0] = 1;
  s.free_gpus[3] = 0;
  s.bb_free = gib(std::int64_t{20});
  const TierHeadroom h = t.headroom(s);
  EXPECT_EQ(h.free_gpus, 1 + 8 + 8 + 0);
  EXPECT_EQ(h.bb_free, gib(std::int64_t{20}));
}

TEST(TopologyModel, SnapshotMirrorsTheClusterGpuLedger) {
  ClusterConfig config = machine(8, 64.0);
  config.gpus_per_node = 2;
  config.bb_capacity = gib(std::int64_t{40});
  Cluster cluster(config);
  Allocation a;
  a.job = 1;
  a.nodes = {0};
  a.local_per_node = gib(std::int64_t{1});
  a.gpus_per_node = 3;
  a.bb_bytes = gib(std::int64_t{15});
  cluster.commit(a);
  const ResourceState s = snapshot(cluster);
  EXPECT_EQ(s.free_gpus_in(0), 5);  // 8 pooled minus the 3 taken
  EXPECT_EQ(s.free_gpus_in(1), 8);
  EXPECT_EQ(s.bb_free, gib(std::int64_t{25}));
}

TEST(TopologySpec, DefaultSpecIsAnExactNoOp) {
  const ClusterConfig base = machine(16, 64.0, 32.0, 128.0);
  EXPECT_TRUE(TopologySpec{}.is_default());
  const ClusterConfig same = apply(TopologySpec{}, base);
  EXPECT_EQ(same.nodes_per_rack, base.nodes_per_rack);
  EXPECT_EQ(same.pool_per_rack, base.pool_per_rack);
  EXPECT_EQ(same.global_pool, base.global_pool);
}

TEST(TopologySpec, ReRackingPreservesRackTierBytes) {
  const ClusterConfig base = machine(16, 64.0, 32.0, 128.0);  // 4 racks
  const ClusterConfig two = apply({.racks = 2}, base);
  EXPECT_EQ(two.racks(), 2);
  EXPECT_EQ(two.nodes_per_rack, 8);
  EXPECT_EQ(two.pool_per_rack, gib(std::int64_t{64}));
  EXPECT_EQ(two.global_pool, base.global_pool);
  const ClusterConfig sixteen = apply({.racks = 16}, base);
  EXPECT_EQ(sixteen.nodes_per_rack, 1);
  EXPECT_EQ(sixteen.pool_per_rack, gib(std::int64_t{8}));
}

TEST(TopologySpec, NonDividingRackCountThrows) {
  const ClusterConfig base = machine(16, 64.0, 32.0, 128.0);
  EXPECT_THROW((void)apply({.racks = 3}, base), std::invalid_argument);
  EXPECT_THROW((void)apply({.racks = 32}, base), std::invalid_argument);
  EXPECT_THROW((void)apply({.racks = -1}, base), std::invalid_argument);
}

TEST(TopologySpec, RackPoolFracSplitsTotalCapacity) {
  const ClusterConfig base = machine(16, 64.0, 32.0, 128.0);
  const Bytes total = gib(std::int64_t{256});
  const ClusterConfig all_rack = apply({.rack_pool_frac = 1.0}, base);
  EXPECT_EQ(all_rack.pool_per_rack, gib(std::int64_t{64}));
  EXPECT_TRUE(all_rack.global_pool.is_zero());
  const ClusterConfig all_global = apply({.rack_pool_frac = 0.0}, base);
  EXPECT_TRUE(all_global.pool_per_rack.is_zero());
  EXPECT_EQ(all_global.global_pool, total);
  const ClusterConfig half = apply({.rack_pool_frac = 0.5}, base);
  EXPECT_EQ(half.pool_per_rack * half.racks() + half.global_pool, total);
}

TEST(TopologySpec, FullRackFracIsStrictlyRackScaleEvenWithResidue) {
  // 12 nodes = 3 racks; 3 × 32 GiB + 128 GiB = 224 GiB total, which does
  // not divide by 3. frac = 1.0 must still yield a machine with *no*
  // global tier: the sub-rack-count residue is dropped, not left behind as
  // a degenerate global pool that would flip has_global_tier().
  const ClusterConfig base = machine(12, 64.0, 32.0, 128.0);
  const Bytes total = gib(std::int64_t{224});
  ASSERT_NE(total.count() % 3, 0);
  const ClusterConfig strict = apply({.rack_pool_frac = 1.0}, base);
  EXPECT_TRUE(strict.global_pool.is_zero());
  EXPECT_FALSE(Topology(strict).has_global_tier());
  const Bytes residue = total - strict.pool_per_rack * 3;
  EXPECT_LT(residue.count(), 3);
}

TEST(TopologySpec, ZeroCapacityTiersThrow) {
  const ClusterConfig base = machine(16, 64.0, 32.0, 128.0);
  // A fraction that rounds the per-rack pool to zero bytes.
  EXPECT_THROW((void)apply({.rack_pool_frac = 1e-13}, base),
               std::invalid_argument);
  // Out-of-range fractions.
  EXPECT_THROW((void)apply({.rack_pool_frac = 1.01}, base),
               std::invalid_argument);
  // Splitting a machine with no disaggregated capacity at all.
  EXPECT_THROW((void)apply({.rack_pool_frac = 0.5}, machine(16, 64.0)),
               std::invalid_argument);
  // Re-racking cannot zero a rack tier here (bytes are preserved), but the
  // scale-validation helper must catch a scaled-away tier.
  ClusterConfig scaled = base;
  scaled.pool_per_rack = Bytes{0};
  EXPECT_THROW(ensure_tiers_survive(scaled, base, "test"),
               std::invalid_argument);
  scaled = base;
  scaled.global_pool = Bytes{0};
  EXPECT_THROW(ensure_tiers_survive(scaled, base, "test"),
               std::invalid_argument);
  // Identical shapes pass.
  ensure_tiers_survive(base, base, "test");
}

TEST(TopologySpec, ComposesWithReRacking) {
  // Re-rack then re-split in one spec: both axes apply, capacity conserved.
  const ClusterConfig base = machine(16, 64.0, 32.0, 128.0);
  const ClusterConfig shaped = apply({.racks = 2, .rack_pool_frac = 0.25},
                                     base);
  EXPECT_EQ(shaped.racks(), 2);
  EXPECT_EQ(shaped.pool_per_rack * 2 + shaped.global_pool,
            gib(std::int64_t{256}));
  EXPECT_EQ(shaped.pool_per_rack, gib(std::int64_t{32}));
  EXPECT_EQ(shaped.global_pool, gib(std::int64_t{192}));
}

TEST(FlattenToGlobal, MovesAllCapacityToTheGlobalTier) {
  const ClusterConfig base = machine(16, 64.0, 32.0, 128.0);
  const ClusterConfig flat = flatten_to_global(base);
  EXPECT_EQ(flat.racks(), 1);
  EXPECT_TRUE(flat.pool_per_rack.is_zero());
  EXPECT_EQ(flat.global_pool, gib(std::int64_t{256}));
  EXPECT_EQ(flat.total_nodes, base.total_nodes);
  EXPECT_EQ(flat.local_mem_per_node, base.local_mem_per_node);
  EXPECT_TRUE(Topology(flat).single_pool());
}

}  // namespace
}  // namespace dmsched
