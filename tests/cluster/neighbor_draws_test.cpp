// Neighbor-marked cross-rack pool draws: the validated relaxation of the
// old "every rack draw comes from a hosting rack" commit assertion.
//
// A draw carries `neighbor = true` exactly when its source rack hosts none
// of the job's nodes (DOLMA-style distance-graded sharing, one switch hop
// further than the own-rack tier). The ledger tracks the foreign-job subset
// of every rack pool separately, release/retier keep it balanced, and the
// *unmarked* foreign draw — a planner bug, not a policy — still aborts
// exactly as it always did.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
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

TEST(NeighborDraws, LedgeredPerSourceRack) {
  // Nodes in rack 0; the 30 GiB deficit is funded 10 from the own rack,
  // 12 from rack 2 (neighbor-marked), 8 from the global tier.
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{50})));
  c.commit(alloc_of(1, {0, 1, 2}, gib(std::int64_t{64}), gib(std::int64_t{10}),
                    {{0, gib(std::int64_t{10})},
                     {2, gib(std::int64_t{12}), /*neighbor=*/true},
                     {kGlobalPoolRack, gib(std::int64_t{8})}}));
  // The foreign draw debits rack 2's pool like any other draw...
  EXPECT_EQ(c.pool_free(2), gib(std::int64_t{88}));
  // ...and is additionally ledgered as foreign, per source rack.
  EXPECT_EQ(testing::neighbor_bytes_in_rack(c, 2), gib(std::int64_t{12}));
  EXPECT_EQ(testing::neighbor_bytes_in_rack(c, 0), Bytes{0});
  EXPECT_EQ(c.neighbor_bytes_total(), gib(std::int64_t{12}));
  // The allocation splits its far bytes by distance grade.
  const Allocation* a = c.find_allocation(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->rack_draw_total(), gib(std::int64_t{10}));
  EXPECT_EQ(a->neighbor_draw_total(), gib(std::int64_t{12}));
  EXPECT_EQ(a->global_draw_total(), gib(std::int64_t{8}));
  c.audit();

  const Allocation released = c.release(1);
  EXPECT_EQ(released.neighbor_draw_total(), gib(std::int64_t{12}));
  EXPECT_EQ(c.pool_free(2), gib(std::int64_t{100}));
  EXPECT_EQ(c.neighbor_bytes_total(), Bytes{0});
  c.audit();
}

TEST(NeighborDraws, TwoJobsShareOneForeignPool) {
  Cluster c(tiny_cluster(gib(std::int64_t{100})));
  c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{20}),
                    {{3, gib(std::int64_t{20}), true}}));
  // Rack 3's own occupant draws from its pool alongside job 1's foreign
  // bytes; the neighbor ledger counts only the foreign subset.
  c.commit(alloc_of(2, {12}, gib(std::int64_t{64}), gib(std::int64_t{30}),
                    {{3, gib(std::int64_t{30})}}));
  EXPECT_EQ(c.pool_free(3), gib(std::int64_t{50}));
  EXPECT_EQ(testing::neighbor_bytes_in_rack(c, 3), gib(std::int64_t{20}));
  c.audit();
  (void)c.release(2);
  EXPECT_EQ(testing::neighbor_bytes_in_rack(c, 3), gib(std::int64_t{20}));
  (void)c.release(1);
  EXPECT_EQ(testing::neighbor_bytes_in_rack(c, 3), Bytes{0});
  c.audit();
}

TEST(NeighborDraws, LegacyStrictModeStillAborts) {
  // An unmarked foreign draw is a planner bug, exactly as before the
  // neighbor tier existed — the relaxation is opt-in per draw.
  Cluster c(tiny_cluster(gib(std::int64_t{100})));
  EXPECT_DEATH(
      c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{10}),
                        {{2, gib(std::int64_t{10})}})),
      "hosting no node");
}

TEST(NeighborDraws, MarkedDrawFromHostingRackAborts) {
  // The inverse lie: a hosting-rack draw claiming to be foreign would be
  // priced at the wrong distance grade.
  Cluster c(tiny_cluster(gib(std::int64_t{100})));
  EXPECT_DEATH(
      c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{10}),
                        {{0, gib(std::int64_t{10}), true}})),
      "neighbor-marked draw from a hosting rack");
}

TEST(NeighborDraws, GlobalDrawCannotBeMarked) {
  Cluster c(tiny_cluster(Bytes{0}, gib(std::int64_t{50})));
  EXPECT_DEATH(
      c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{10}),
                        {{kGlobalPoolRack, gib(std::int64_t{10}), true}})),
      "global draw marked as neighbor");
}

TEST(NeighborDraws, OvercommitThroughForeignDrawsAborts) {
  // The relaxed path still enforces capacity: a foreign draw cannot push a
  // pool past its size any more than an own-rack draw can.
  Cluster c(tiny_cluster(gib(std::int64_t{10})));
  c.commit(alloc_of(1, {12}, gib(std::int64_t{64}), gib(std::int64_t{8}),
                    {{3, gib(std::int64_t{8})}}));
  EXPECT_DEATH(
      c.commit(alloc_of(2, {0}, gib(std::int64_t{64}), gib(std::int64_t{3}),
                        {{3, gib(std::int64_t{3}), true}})),
      "overcommitted");
}

TEST(Retier, MovesBytesBetweenTiersAndKeepsLedgersBalanced) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{50})));
  c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{30}),
                    {{0, gib(std::int64_t{10})},
                     {2, gib(std::int64_t{12}), true},
                     {kGlobalPoolRack, gib(std::int64_t{8})}}));
  // Demote the neighbor draw to the global tier (far total preserved).
  c.retier(1, {{0, gib(std::int64_t{10})},
               {kGlobalPoolRack, gib(std::int64_t{20})}});
  EXPECT_EQ(c.pool_free(2), gib(std::int64_t{100}));
  EXPECT_EQ(c.neighbor_bytes_total(), Bytes{0});
  EXPECT_EQ(c.global_pool_free(), gib(std::int64_t{30}));
  c.audit();
  // Promote part of it back as a neighbor draw on a different rack.
  c.retier(1, {{0, gib(std::int64_t{10})},
               {1, gib(std::int64_t{15}), true},
               {kGlobalPoolRack, gib(std::int64_t{5})}});
  EXPECT_EQ(testing::neighbor_bytes_in_rack(c, 1), gib(std::int64_t{15}));
  EXPECT_EQ(c.global_pool_free(), gib(std::int64_t{45}));
  c.audit();
  (void)c.release(1);
  EXPECT_EQ(c.neighbor_bytes_total(), Bytes{0});
  c.audit();
}

TEST(Retier, ReshuffleWithinOneFullPoolSucceeds) {
  // Capacity is validated with the job's own draws released first, so a
  // retier that keeps a full pool full (just re-labelled) must pass.
  Cluster c(tiny_cluster(gib(std::int64_t{10}), gib(std::int64_t{50})));
  c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{10}),
                    {{0, gib(std::int64_t{10})}}));
  EXPECT_EQ(c.pool_free(0), Bytes{0});
  c.retier(1, {{0, gib(std::int64_t{10})}});
  EXPECT_EQ(c.pool_free(0), Bytes{0});
  c.audit();
}

TEST(Retier, FarTotalIsInvariant) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{50})));
  c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{20}),
                    {{0, gib(std::int64_t{20})}}));
  EXPECT_DEATH(c.retier(1, {{0, gib(std::int64_t{15})}}),
               "do not cover the far requirement");
}

TEST(Retier, OvercommitAborts) {
  Cluster c(tiny_cluster(gib(std::int64_t{10}), gib(std::int64_t{50})));
  c.commit(alloc_of(1, {12}, gib(std::int64_t{64}), gib(std::int64_t{8}),
                    {{3, gib(std::int64_t{8})}}));
  c.commit(alloc_of(2, {0}, gib(std::int64_t{64}), gib(std::int64_t{6}),
                    {{kGlobalPoolRack, gib(std::int64_t{6})}}));
  // Promoting job 2's global bytes into rack 3 (8/10 used) must abort.
  EXPECT_DEATH(c.retier(2, {{3, gib(std::int64_t{6}), true}}),
               "rack pool overcommitted");
}

TEST(Retier, MarkingMustMatchTheHostingSet) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{50})));
  c.commit(alloc_of(1, {0}, gib(std::int64_t{64}), gib(std::int64_t{10}),
                    {{kGlobalPoolRack, gib(std::int64_t{10})}}));
  EXPECT_DEATH(c.retier(1, {{2, gib(std::int64_t{10})}}),
               "hosting no node");
  EXPECT_DEATH(c.retier(1, {{0, gib(std::int64_t{10}), true}}),
               "neighbor-marked draw from a hosting rack");
}

}  // namespace
}  // namespace dmsched
