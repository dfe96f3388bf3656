#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"
#include "testing/cluster_oracle.hpp"

namespace dmsched {
namespace {

using testing::tiny_cluster;

Allocation alloc_of(JobId id, std::vector<NodeId> nodes, Bytes local,
                    Bytes far = Bytes{0}, std::vector<PoolDraw> draws = {}) {
  Allocation a;
  a.job = id;
  a.nodes = std::move(nodes);
  a.local_per_node = local;
  a.far_per_node = far;
  a.draws = std::move(draws);
  return a;
}

TEST(Cluster, StartsAllFree) {
  Cluster c(tiny_cluster());
  EXPECT_EQ(c.free_nodes_total(), 16);
  EXPECT_EQ(c.busy_nodes(), 0);
  for (RackId r = 0; r < 4; ++r) EXPECT_EQ(c.free_nodes_in_rack(r), 4);
  EXPECT_EQ(testing::occupant(c, 0), kInvalidJobId);
  c.audit();
}

TEST(Cluster, CommitMarksNodesBusy) {
  Cluster c(tiny_cluster());
  c.commit(alloc_of(7, {0, 1, 5}, gib(std::int64_t{32})));
  EXPECT_EQ(c.free_nodes_total(), 13);
  EXPECT_EQ(c.free_nodes_in_rack(0), 2);
  EXPECT_EQ(c.free_nodes_in_rack(1), 3);
  EXPECT_EQ(testing::occupant(c, 0), 7u);
  EXPECT_EQ(testing::occupant(c, 5), 7u);
  EXPECT_EQ(testing::occupant(c, 2), kInvalidJobId);
  c.audit();
}

TEST(Cluster, ReleaseRestoresState) {
  Cluster c(tiny_cluster(gib(std::int64_t{100})));
  c.commit(alloc_of(1, {0, 1}, gib(std::int64_t{64}), gib(std::int64_t{10}),
                    {{0, gib(std::int64_t{20})}}));
  const Allocation released = c.release(1);
  EXPECT_EQ(released.nodes.size(), 2u);
  EXPECT_EQ(c.free_nodes_total(), 16);
  EXPECT_EQ(c.pool_free(0), gib(std::int64_t{100}));
  c.audit();
}

TEST(Cluster, PoolLedgers) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{50})));
  c.commit(alloc_of(1, {0, 4}, gib(std::int64_t{64}), gib(std::int64_t{30}),
                    {{0, gib(std::int64_t{30})},
                     {1, gib(std::int64_t{20})},
                     {kGlobalPoolRack, gib(std::int64_t{10})}}));
  EXPECT_EQ(c.pool_free(0), gib(std::int64_t{70}));
  EXPECT_EQ(c.pool_free(1), gib(std::int64_t{80}));
  EXPECT_EQ(c.global_pool_free(), gib(std::int64_t{40}));
  EXPECT_EQ(c.rack_pools_used(), gib(std::int64_t{50}));
  EXPECT_EQ(c.global_pool_used(), gib(std::int64_t{10}));
  c.audit();
}

TEST(Cluster, DoubleAllocationOfNodeAborts) {
  Cluster c(tiny_cluster());
  c.commit(alloc_of(1, {3}, gib(std::int64_t{1})));
  EXPECT_DEATH(c.commit(alloc_of(2, {3}, gib(std::int64_t{1}))), "occupied");
}

TEST(Cluster, SameJobTwiceAborts) {
  Cluster c(tiny_cluster());
  c.commit(alloc_of(1, {0}, gib(std::int64_t{1})));
  EXPECT_DEATH(c.commit(alloc_of(1, {1}, gib(std::int64_t{1}))),
               "already holds");
}

TEST(Cluster, PoolOvercommitAborts) {
  Cluster c(tiny_cluster(gib(std::int64_t{10})));
  EXPECT_DEATH(
      c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{11}),
                        {{0, gib(std::int64_t{11})}})),
      "overcommitted");
}

TEST(Cluster, GlobalPoolOvercommitAborts) {
  Cluster c(tiny_cluster(Bytes{0}, gib(std::int64_t{5})));
  EXPECT_DEATH(
      c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{6}),
                        {{kGlobalPoolRack, gib(std::int64_t{6})}})),
      "overcommitted");
}

TEST(Cluster, DrawsMustCoverFarRequirement) {
  Cluster c(tiny_cluster(gib(std::int64_t{100})));
  // 2 nodes × 10 GiB far = 20 GiB needed, only 10 drawn
  EXPECT_DEATH(
      c.commit(alloc_of(1, {0, 1}, gib(std::int64_t{64}),
                        gib(std::int64_t{10}), {{0, gib(std::int64_t{10})}})),
      "do not cover");
}

TEST(Cluster, DrawFromForeignRackAborts) {
  Cluster c(tiny_cluster(gib(std::int64_t{100})));
  // nodes in rack 0, draw from rack 2
  EXPECT_DEATH(
      c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{10}),
                        {{2, gib(std::int64_t{10})}})),
      "hosting no node");
}

TEST(Cluster, LocalShareAboveCapacityAborts) {
  Cluster c(tiny_cluster());
  EXPECT_DEATH(c.commit(alloc_of(1, {0}, gib(std::int64_t{65}))), "local");
}

TEST(Cluster, ReleaseUnknownJobAborts) {
  Cluster c(tiny_cluster());
  EXPECT_DEATH((void)c.release(99), "not running");
}

TEST(Cluster, FindAllocation) {
  Cluster c(tiny_cluster());
  EXPECT_EQ(c.find_allocation(1), nullptr);
  c.commit(alloc_of(1, {0}, gib(std::int64_t{1})));
  const Allocation* a = c.find_allocation(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->nodes.size(), 1u);
}

TEST(Cluster, RunningJobsSorted) {
  Cluster c(tiny_cluster());
  c.commit(alloc_of(5, {0}, gib(std::int64_t{1})));
  c.commit(alloc_of(2, {1}, gib(std::int64_t{1})));
  c.commit(alloc_of(9, {2}, gib(std::int64_t{1})));
  EXPECT_EQ(c.running_jobs(), (std::vector<JobId>{2, 5, 9}));
}

TEST(Cluster, FreeNodesLowestReturnsAscending) {
  Cluster c(tiny_cluster());
  c.commit(alloc_of(1, {4, 6}, gib(std::int64_t{1})));  // rack 1 = nodes 4..7
  const auto free = c.free_nodes_in_rack_lowest(1, 10);
  EXPECT_EQ(free, (std::vector<NodeId>{5, 7}));
}

TEST(Cluster, FreeNodesLowestHonorsCount) {
  Cluster c(tiny_cluster());
  const auto free = c.free_nodes_in_rack_lowest(2, 2);
  EXPECT_EQ(free, (std::vector<NodeId>{8, 9}));
}

TEST(Cluster, AllocationAccessors) {
  Allocation a = alloc_of(1, {0, 4}, gib(std::int64_t{64}),
                          gib(std::int64_t{16}),
                          {{0, gib(std::int64_t{16})},
                           {kGlobalPoolRack, gib(std::int64_t{16})}});
  EXPECT_EQ(a.far_total(), gib(std::int64_t{32}));
  EXPECT_EQ(a.mem_total(), gib(std::int64_t{160}));
  EXPECT_EQ(a.rack_draw_total(), gib(std::int64_t{16}));
  EXPECT_EQ(a.global_draw_total(), gib(std::int64_t{16}));
}

// --- GPU / burst-buffer ledger (the resource-vector axes) -------------------

Allocation resource_alloc(JobId id, std::vector<NodeId> nodes,
                          std::int32_t gpus_per_node, Bytes bb = Bytes{0}) {
  Allocation a = alloc_of(id, std::move(nodes), gib(std::int64_t{1}));
  a.gpus_per_node = gpus_per_node;
  a.bb_bytes = bb;
  return a;
}

TEST(Cluster, GpuLedgerTracksRackPools) {
  ClusterConfig cfg = testing::machine(16, 64.0);
  cfg.gpus_per_node = 2;  // 4 racks × 4 nodes → 8 devices per rack
  Cluster c(cfg);
  EXPECT_EQ(c.free_gpus_in_rack(0), 8);
  EXPECT_EQ(c.gpus_used_total(), 0);

  // Rack-pooled: one node may hold more devices than its per-node share.
  c.commit(resource_alloc(1, {0, 1}, 3));
  EXPECT_EQ(testing::gpus_used_in_rack(c, 0), 6);
  EXPECT_EQ(c.free_gpus_in_rack(0), 2);
  EXPECT_EQ(c.free_gpus_in_rack(1), 8);  // other racks untouched
  EXPECT_EQ(c.gpus_used_total(), 6);
  c.audit();

  c.release(1);
  EXPECT_EQ(c.free_gpus_in_rack(0), 8);
  EXPECT_EQ(c.gpus_used_total(), 0);
  c.audit();
}

TEST(Cluster, GpuLedgerSplitsAcrossRacks) {
  ClusterConfig cfg = testing::machine(16, 64.0);
  cfg.gpus_per_node = 2;
  Cluster c(cfg);
  // Nodes 3 (rack 0) and 4 (rack 1): each rack funds its hosted nodes only.
  c.commit(resource_alloc(1, {3, 4}, 2));
  EXPECT_EQ(testing::gpus_used_in_rack(c, 0), 2);
  EXPECT_EQ(testing::gpus_used_in_rack(c, 1), 2);
  EXPECT_EQ(c.gpus_used_total(), 4);
  c.audit();
}

TEST(Cluster, GpuOvercommitAborts) {
  ClusterConfig cfg = testing::machine(16, 64.0);
  cfg.gpus_per_node = 2;
  Cluster c(cfg);
  c.commit(resource_alloc(1, {0, 1}, 3));  // 6 of rack 0's 8 devices
  EXPECT_DEATH(c.commit(resource_alloc(2, {2}, 3)),
               "GPU pool overcommitted");
}

TEST(Cluster, GpuDemandOnGpuFreeMachineAborts) {
  // The ledger refuses device demand the machine never provisioned
  // (gpus_per_node == 0): blind policies cannot sneak devices in.
  Cluster c(tiny_cluster());
  EXPECT_DEATH(c.commit(resource_alloc(1, {0}, 1)), "GPU pool overcommitted");
}

TEST(Cluster, BurstBufferLedger) {
  ClusterConfig cfg = testing::machine(8, 64.0);
  cfg.bb_capacity = gib(std::int64_t{100});
  Cluster c(cfg);
  EXPECT_EQ(c.bb_free(), gib(std::int64_t{100}));

  c.commit(resource_alloc(1, {0}, 0, gib(std::int64_t{60})));
  c.commit(resource_alloc(2, {1}, 0, gib(std::int64_t{30})));
  EXPECT_EQ(c.bb_used(), gib(std::int64_t{90}));
  EXPECT_EQ(c.bb_free(), gib(std::int64_t{10}));
  c.audit();

  c.release(1);
  EXPECT_EQ(c.bb_free(), gib(std::int64_t{70}));
  c.audit();
}

TEST(Cluster, BurstBufferOvercommitAborts) {
  ClusterConfig cfg = testing::machine(8, 64.0);
  cfg.bb_capacity = gib(std::int64_t{100});
  Cluster c(cfg);
  c.commit(resource_alloc(1, {0}, 0, gib(std::int64_t{60})));
  EXPECT_DEATH(c.commit(resource_alloc(2, {1}, 0, gib(std::int64_t{41}))),
               "burst buffer overcommitted");
}

TEST(Cluster, ResourceAllocationAccessors) {
  ClusterConfig cfg = testing::machine(16, 64.0);
  cfg.gpus_per_node = 4;
  Allocation a = alloc_of(1, {0, 1, 4}, gib(std::int64_t{1}));
  a.gpus_per_node = 2;
  EXPECT_EQ(a.gpus_in_rack(cfg, 0), 4);  // nodes 0, 1
  EXPECT_EQ(a.gpus_in_rack(cfg, 1), 2);  // node 4
  EXPECT_EQ(a.gpus_in_rack(cfg, 2), 0);
  EXPECT_EQ(cfg.rack_gpu_capacity(0), 16);
  EXPECT_EQ(cfg.total_gpus(), 64);
}

TEST(Cluster, ManyCommitsAndReleasesStayConsistent) {
  Cluster c(tiny_cluster(gib(std::int64_t{64})));
  for (int round = 0; round < 50; ++round) {
    const JobId id = static_cast<JobId>(round);
    const NodeId n = static_cast<NodeId>(round % 16);
    const JobId held = testing::occupant(c, n);
    if (held != kInvalidJobId) c.release(held);
    c.commit(alloc_of(id, {n}, gib(std::int64_t{32}), gib(std::int64_t{4}),
                      {{n / 4, gib(std::int64_t{4})}}));
    c.audit();
  }
}

}  // namespace
}  // namespace dmsched
