// Unit coverage for the migration layer: the no-op sentinel, the bandwidth
// model, the engine's refusal of a policy with no promotion band, the
// scanner's demote/promote proposals, and the draw rewrite that turns a
// decision into a Cluster::retier argument.
#include "migration/migration.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cluster/cluster.hpp"
#include "testing/builders.hpp"

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

// --- policy -----------------------------------------------------------------

TEST(MigrationPolicy, DefaultIsTheNoOpSentinel) {
  const MigrationPolicy p;
  EXPECT_FALSE(p.enabled());
  EXPECT_EQ(p.latency_for(gib(std::int64_t{512})), SimTime{});
}

TEST(MigrationPolicy, EnabledByNonZeroInterval) {
  MigrationPolicy p;
  p.check_interval = minutes(10);
  EXPECT_TRUE(p.enabled());
}

TEST(MigrationPolicy, LatencyScalesWithBytesOverBandwidth) {
  MigrationPolicy p;
  p.bandwidth_gibps = 2.0;
  EXPECT_EQ(p.latency_for(gib(std::int64_t{4})).usec(), seconds(2.0).usec());
  EXPECT_EQ(p.latency_for(Bytes{0}), SimTime{});
}

// --- the scanner ------------------------------------------------------------

MigrationPolicy active_policy() {
  MigrationPolicy p;
  p.check_interval = minutes(10);
  return p;
}

TEST(MigrationPlan, DisabledPolicyPlansNothing) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{200})));
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{90}),
                    {{0, gib(std::int64_t{90})}}));
  const MigrationEngine engine{MigrationPolicy{}};
  EXPECT_TRUE(engine.plan(c, {0}).empty());
}

TEST(MigrationPlan, SingleTierMachinesPlanNothing) {
  // No rack tier (or no global tier): there is nowhere to grade bytes to.
  Cluster rackless(tiny_cluster(Bytes{0}, gib(std::int64_t{200})));
  Cluster globaless(tiny_cluster(gib(std::int64_t{100})));
  const MigrationEngine engine{active_policy()};
  EXPECT_TRUE(engine.plan(rackless, {}).empty());
  EXPECT_TRUE(engine.plan(globaless, {}).empty());
}

TEST(MigrationPlan, DemotesDrawsFromContendedPools) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{200})));
  // Rack 0's pool at 90% — above the 0.85 default threshold.
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{90}),
                    {{0, gib(std::int64_t{90})}}));
  const MigrationEngine engine{active_policy()};
  const auto moves = engine.plan(c, {0});
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].job, 0u);
  EXPECT_EQ(moves[0].kind, MigrationKind::kDemote);
  EXPECT_EQ(moves[0].rack, 0);
  EXPECT_FALSE(moves[0].neighbor);
  EXPECT_EQ(moves[0].bytes, gib(std::int64_t{90}));
}

TEST(MigrationPlan, UncontendedPoolsAreLeftAlone) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{200})));
  // 80% < threshold: no demotion; and 0.80 >= band (0.60) blocks promotion
  // into the same rack, so the scan proposes nothing at all.
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{80}),
                    {{0, gib(std::int64_t{80})}}));
  const MigrationEngine engine{active_policy()};
  EXPECT_TRUE(engine.plan(c, {0}).empty());
}

TEST(MigrationPlan, DemotionRequiresGlobalHeadroom) {
  // Global pool too small to absorb the draw: the move is not proposed.
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{50})));
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{90}),
                    {{0, gib(std::int64_t{90})}}));
  const MigrationEngine engine{active_policy()};
  EXPECT_TRUE(engine.plan(c, {0}).empty());
}

TEST(MigrationPlan, AtMostOneMovePerJobPerScan) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{400})));
  // Job 0 draws from two pools, both pushed over the threshold.
  c.commit(alloc_of(0, {0, 4}, gib(std::int64_t{64}), gib(std::int64_t{90}),
                    {{0, gib(std::int64_t{90})}, {1, gib(std::int64_t{90})}}));
  const MigrationEngine engine{active_policy()};
  const auto moves = engine.plan(c, {0});
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].rack, 0);  // first draw wins; one move per scan
}

TEST(MigrationPlan, InScanDecisionsSeeEachOther) {
  // Two jobs share rack 0's pool (45 + 45 = 90%). Demoting the first
  // relieves the pool below the threshold, so the second stays put —
  // without the working copies both would demote and overshoot.
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{400})));
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{45}),
                    {{0, gib(std::int64_t{45})}}));
  c.commit(alloc_of(1, {4}, gib(std::int64_t{64}), gib(std::int64_t{45}),
                    {{0, gib(std::int64_t{45}), true}}));
  const MigrationEngine engine{active_policy()};
  const auto moves = engine.plan(c, {0, 1});
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].job, 0u);
  EXPECT_EQ(moves[0].kind, MigrationKind::kDemote);
}

TEST(MigrationPlan, NeighborDrawsDemoteWithTheFlagPreserved) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{200})));
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{90}),
                    {{1, gib(std::int64_t{90}), true}}));
  const MigrationEngine engine{active_policy()};
  const auto moves = engine.plan(c, {0});
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].kind, MigrationKind::kDemote);
  EXPECT_EQ(moves[0].rack, 1);
  EXPECT_TRUE(moves[0].neighbor);
}

TEST(MigrationPlan, PromotesGlobalBytesIntoAHostingRackWithHeadroom) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{200})));
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{30}),
                    {{kGlobalPoolRack, gib(std::int64_t{30})}}));
  const MigrationEngine engine{active_policy()};
  const auto moves = engine.plan(c, {0});
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].kind, MigrationKind::kPromote);
  EXPECT_EQ(moves[0].rack, 0);  // the hosting rack
  EXPECT_FALSE(moves[0].neighbor);
  EXPECT_EQ(moves[0].bytes, gib(std::int64_t{30}));
}

TEST(MigrationPlan, PromotionIsClampedToTheHysteresisCeiling) {
  // band = 0.85 - 0.25 = 0.60 of a 100 GiB pool: a 90 GiB global draw only
  // promotes 60 GiB, so the landing never re-triggers a demotion.
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{200})));
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{90}),
                    {{kGlobalPoolRack, gib(std::int64_t{90})}}));
  const MigrationEngine engine{active_policy()};
  const auto moves = engine.plan(c, {0});
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].kind, MigrationKind::kPromote);
  EXPECT_EQ(moves[0].bytes, gib(std::int64_t{60}));
}

TEST(MigrationEngine, BandAtOrAboveThresholdThrowsNamingPromoteHeadroom) {
  // A headroom at or above the demote threshold leaves no promotion band;
  // the engine refuses the policy instead of planning with it.
  for (const double headroom : {0.2, 0.25}) {
    MigrationPolicy p = active_policy();
    p.demote_threshold = 0.2;
    p.promote_headroom = headroom;
    try {
      const MigrationEngine engine{p};
      ADD_FAILURE() << "headroom " << headroom << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("promote_headroom"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MigrationPlan, DemotionsComeBeforePromotionsInOneScan) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{400})));
  // Job 0: promote candidate (global bytes, hosting rack 0 idle).
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{20}),
                    {{kGlobalPoolRack, gib(std::int64_t{20})}}));
  // Job 1: demote candidate (rack 1 at 90%).
  c.commit(alloc_of(1, {4}, gib(std::int64_t{64}), gib(std::int64_t{90}),
                    {{1, gib(std::int64_t{90})}}));
  const MigrationEngine engine{active_policy()};
  const auto moves = engine.plan(c, {0, 1});
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].kind, MigrationKind::kDemote);
  EXPECT_EQ(moves[0].job, 1u);
  EXPECT_EQ(moves[1].kind, MigrationKind::kPromote);
  EXPECT_EQ(moves[1].job, 0u);
}

TEST(MigrationPlan, InFlightJobsAreSkipped) {
  Cluster c(tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{200})));
  c.commit(alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{90}),
                    {{0, gib(std::int64_t{90})}}));
  MigrationEngine engine{active_policy()};
  engine.on_dispatch(0);
  EXPECT_TRUE(engine.in_flight(0));
  EXPECT_TRUE(engine.plan(c, {0}).empty());
  engine.on_applied(0);
  EXPECT_FALSE(engine.in_flight(0));
  EXPECT_EQ(engine.plan(c, {0}).size(), 1u);
  // A finish also clears the slot (the delayed move finds the job gone).
  engine.on_dispatch(0);
  engine.on_job_finished(0);
  EXPECT_FALSE(engine.in_flight(0));
}

// --- rewrite_draws ----------------------------------------------------------

TEST(RewriteDraws, DemotionMovesBytesToTheGlobalDraw) {
  const Allocation a =
      alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{30}),
               {{0, gib(std::int64_t{20})}, {kGlobalPoolRack, gib(std::int64_t{10})}});
  const auto out = rewrite_draws(
      a, {0, MigrationKind::kDemote, 0, false, gib(std::int64_t{5})});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rack, 0);
  EXPECT_EQ(out[0].bytes, gib(std::int64_t{15}));
  EXPECT_FALSE(out[0].neighbor);
  EXPECT_EQ(out[1].rack, kGlobalPoolRack);
  EXPECT_EQ(out[1].bytes, gib(std::int64_t{15}));
}

TEST(RewriteDraws, FullDemotionDropsTheSourceDraw) {
  const Allocation a = alloc_of(0, {0}, gib(std::int64_t{64}),
                                gib(std::int64_t{20}),
                                {{1, gib(std::int64_t{20}), true}});
  const auto out = rewrite_draws(
      a, {0, MigrationKind::kDemote, 1, true, gib(std::int64_t{20})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rack, kGlobalPoolRack);
  EXPECT_EQ(out[0].bytes, gib(std::int64_t{20}));
}

TEST(RewriteDraws, PromotionCreatesOrTopsUpTheRackDraw) {
  const Allocation a =
      alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{30}),
               {{kGlobalPoolRack, gib(std::int64_t{30})}});
  const auto out = rewrite_draws(
      a, {0, MigrationKind::kPromote, 0, false, gib(std::int64_t{12})});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rack, 0);
  EXPECT_EQ(out[0].bytes, gib(std::int64_t{12}));
  EXPECT_EQ(out[1].rack, kGlobalPoolRack);
  EXPECT_EQ(out[1].bytes, gib(std::int64_t{18}));
}

TEST(RewriteDraws, CanonicalOrderIsOwnNeighborGlobal) {
  // Input deliberately scrambled; far total 50.
  const Allocation a = alloc_of(
      0, {0}, gib(std::int64_t{64}), gib(std::int64_t{50}),
      {{kGlobalPoolRack, gib(std::int64_t{10})},
       {3, gib(std::int64_t{10}), true},
       {0, gib(std::int64_t{10})},
       {1, gib(std::int64_t{10}), true},
       {0, gib(std::int64_t{10})}});  // duplicate own-rack draw: coalesced
  const auto out = rewrite_draws(
      a, {0, MigrationKind::kDemote, 3, true, gib(std::int64_t{4})});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].rack, 0);  // own-rack draws first, coalesced
  EXPECT_FALSE(out[0].neighbor);
  EXPECT_EQ(out[0].bytes, gib(std::int64_t{20}));
  EXPECT_EQ(out[1].rack, 1);  // then neighbor draws, rack ascending
  EXPECT_TRUE(out[1].neighbor);
  EXPECT_EQ(out[2].rack, 3);
  EXPECT_TRUE(out[2].neighbor);
  EXPECT_EQ(out[2].bytes, gib(std::int64_t{6}));
  EXPECT_EQ(out[3].rack, kGlobalPoolRack);  // the global draw last
  EXPECT_EQ(out[3].bytes, gib(std::int64_t{14}));
  // The rewrite conserves the far total.
  Bytes total{};
  for (const auto& d : out) total += d.bytes;
  EXPECT_EQ(total, gib(std::int64_t{50}));
}

TEST(RewriteDrawsDeath, DemotionBeyondTheSourceDrawAborts) {
  const Allocation a = alloc_of(0, {0}, gib(std::int64_t{64}),
                                gib(std::int64_t{10}),
                                {{0, gib(std::int64_t{10})}});
  EXPECT_DEATH(
      (void)rewrite_draws(
          a, {0, MigrationKind::kDemote, 0, false, gib(std::int64_t{11})}),
      "exceeds the source draw");
}

TEST(RewriteDrawsDeath, PromotionBeyondTheGlobalDrawAborts) {
  const Allocation a =
      alloc_of(0, {0}, gib(std::int64_t{64}), gib(std::int64_t{10}),
               {{kGlobalPoolRack, gib(std::int64_t{10})}});
  EXPECT_DEATH(
      (void)rewrite_draws(
          a, {0, MigrationKind::kPromote, 0, false, gib(std::int64_t{11})}),
      "exceeds the global draw");
}

TEST(MigrationKindNames, RoundTrip) {
  EXPECT_STREQ(to_string(MigrationKind::kDemote), "demote");
  EXPECT_STREQ(to_string(MigrationKind::kPromote), "promote");
}

}  // namespace
}  // namespace dmsched
