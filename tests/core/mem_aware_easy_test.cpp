#include "core/mem_aware_easy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/system_config.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "testing/builders.hpp"
#include "testing/fake_context.hpp"
#include "testing/lifecycle.hpp"
#include "topology/placement_policy.hpp"
#include "workload/trace_source.hpp"

namespace dmsched {
namespace {

using testing::FakeContext;
using testing::job;
using testing::tiny_cluster;

TEST(MemAwareEasy, StartsHeadRunWhenEverythingFits) {
  FakeContext ctx(tiny_cluster(), {job(0).nodes(8), job(1).nodes(8)});
  ctx.enqueue(0);
  ctx.enqueue(1);
  MemAwareEasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{0, 1}));
}

TEST(MemAwareEasy, BackfillsShortJobBeforeReservation) {
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(8).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(4).walltime_h(2.0).runtime_h(2.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  MemAwareEasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
}

TEST(MemAwareEasy, ProtectsHeadsPoolReservation) {
  // The contrast with EasyScheduler's pathology test: the head waits on
  // pool bytes; a long pool-draining candidate would push the head's start
  // back, so the memory-aware re-check must reject it.
  const ClusterConfig cfg =
      custom_config(4, 4, gib(std::int64_t{64}), gib(std::int64_t{32}),
                    Bytes{0});
  FakeContext ctx(cfg,
                  {job(0).nodes(1).mem_gib(80).walltime_h(2.0).runtime_h(2.0),
                   job(1).nodes(1).mem_gib(96).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(1).mem_gib(80).walltime_h(10.0).runtime_h(9.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  MemAwareEasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty())
      << "candidate 2 would drain the pool the head needs at its reservation";
}

TEST(MemAwareEasy, AllowsPoolBackfillEndingBeforeReservation) {
  // Same shape, but the candidate is short: it returns its pool bytes
  // before the head's reservation, so it must be accepted.
  const ClusterConfig cfg =
      custom_config(4, 4, gib(std::int64_t{64}), gib(std::int64_t{32}),
                    Bytes{0});
  FakeContext ctx(cfg,
                  {job(0).nodes(1).mem_gib(80).walltime_h(2.0).runtime_h(2.0),
                   job(1).nodes(1).mem_gib(96).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(1).mem_gib(80).walltime_h(1.0).runtime_h(1.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  MemAwareEasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
}

TEST(MemAwareEasy, NodeDimensionStillProtected) {
  // Classic EASY node protection must continue to hold.
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(8).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(6).walltime_h(6.0).runtime_h(6.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  MemAwareEasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());
}

TEST(MemAwareEasy, BackfillWithinSpareNodesAccepted) {
  // A long candidate that does not intersect the head's claim at t* is
  // accepted via the refit check (EASY's "extra nodes" generalized).
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(8).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(4).walltime_h(24.0).runtime_h(20.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  MemAwareEasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
}

/// Whether a 1-node, 1 h job backfills when `blocked` 16-node candidates
/// queue ahead of it behind a 16-node head, on a machine whose other 15
/// nodes are busy for 4 h (the free node is its only fit, and it ends
/// before the head's reservation).
bool backfills_behind(std::size_t blocked) {
  std::vector<Job> jobs = {job(0).nodes(15).walltime_h(4.0).runtime_h(4.0),
                           job(1).nodes(16)};
  for (std::size_t k = 0; k < blocked; ++k) {
    jobs.push_back(job(static_cast<JobId>(jobs.size())).nodes(16));
  }
  const auto last = static_cast<JobId>(jobs.size());
  jobs.push_back(job(last).nodes(1).walltime_h(1.0).runtime_h(1.0));
  FakeContext ctx(tiny_cluster(), std::move(jobs));
  ctx.force_run(0);
  for (JobId i = 1; i <= last; ++i) ctx.enqueue(i);
  MemAwareEasyScheduler sched;
  sched.schedule(ctx);
  return ctx.started() == std::vector<JobId>{last};
}

TEST(MemAwareEasy, BackfillWindowCapsCandidates) {
  // A pass examines kBackfillWindow candidates: the 1-node job backfills as
  // the last of them, and is never examined one place further back.
  EXPECT_TRUE(backfills_behind(MemAwareEasyScheduler::kBackfillWindow - 1));
  EXPECT_FALSE(backfills_behind(MemAwareEasyScheduler::kBackfillWindow));
}

TEST(MemAwareEasy, ShortestFirstOrderPrefersShortCandidates) {
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(12).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(16).walltime_h(1.0).runtime_h(1.0),
                   // two 4-node candidates; only one fits (4 free nodes)
                   job(2).nodes(4).walltime_h(3.0).runtime_h(3.0),
                   job(3).nodes(4).walltime_h(1.0).runtime_h(1.0)});
  ctx.force_run(0);
  for (JobId i = 1; i <= 3; ++i) ctx.enqueue(i);
  MemAwareOptions opts;
  opts.order = BackfillOrder::kShortestFirst;
  MemAwareEasyScheduler sched(opts);
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{3}));
}

TEST(MemAwareEasy, BestMemFitOrderPrefersDeficitJobs) {
  const ClusterConfig cfg =
      custom_config(8, 8, gib(std::int64_t{64}), gib(std::int64_t{64}),
                    Bytes{0});
  FakeContext ctx(cfg,
                  {job(0).nodes(6).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(8).walltime_h(1.0).runtime_h(1.0),
                   // local-memory candidate first in queue order...
                   job(2).nodes(2).walltime_h(1.0).runtime_h(1.0).mem_gib(8),
                   // ...but the deficit candidate is preferred by best-mem-fit
                   job(3).nodes(2).walltime_h(1.0).runtime_h(1.0).mem_gib(80)});
  ctx.force_run(0);
  for (JobId i = 1; i <= 3; ++i) ctx.enqueue(i);
  MemAwareOptions opts;
  opts.order = BackfillOrder::kBestMemFit;
  MemAwareEasyScheduler sched(opts);
  sched.schedule(ctx);
  ASSERT_FALSE(ctx.started().empty());
  EXPECT_EQ(ctx.started().front(), 3u);
}

TEST(MemAwareEasy, AdaptiveDefersGlobalSpillWhenRackPoolSoon) {
  // Head can start NOW via the expensive global pool, or in 15 minutes via
  // the cheap rack pool. With a 10 h walltime the wait is the better deal:
  // finish_now = 10h × (1 + 0.45/3) = 11.5h; finish_wait = 0.25h + 11h.
  const ClusterConfig cfg =
      custom_config(4, 4, gib(std::int64_t{64}), gib(std::int64_t{32}),
                    gib(std::int64_t{1024}));
  FakeContext ctx(cfg,
                  {job(0).nodes(1).mem_gib(96).walltime_h(0.25).runtime_h(0.25),
                   job(1).nodes(1).mem_gib(96).walltime_h(10.0).runtime_h(9.0)});
  ctx.force_run(0);  // pins the whole rack pool for 15 min
  ctx.enqueue(1);

  MemAwareOptions plain;
  MemAwareEasyScheduler eager(plain);
  {
    FakeContext ctx2(cfg, {job(0).nodes(1).mem_gib(96).walltime_h(0.25)
                               .runtime_h(0.25),
                           job(1).nodes(1).mem_gib(96).walltime_h(10.0)
                               .runtime_h(9.0)});
    ctx2.force_run(0);
    ctx2.enqueue(1);
    eager.schedule(ctx2);
    // plain mem-easy starts immediately, spilling to the global pool
    ASSERT_EQ(ctx2.started().size(), 1u);
    EXPECT_GT(ctx2.cluster().global_pool_used(), Bytes{0});
  }

  MemAwareOptions adaptive;
  adaptive.adaptive = true;
  MemAwareEasyScheduler sched(adaptive);
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty())
      << "adaptive policy must wait 15 min for the cheap rack pool";

  // Once the rack pool frees, the job starts rack-local.
  ctx.finish(0);
  ctx.set_now(minutes(15));
  sched.schedule(ctx);
  ASSERT_EQ(ctx.started().size(), 1u);
  EXPECT_EQ(ctx.cluster().global_pool_used(), Bytes{0});
  EXPECT_GT(ctx.cluster().rack_pools_used(), Bytes{0});
}

TEST(MemAwareEasy, AdaptiveStartsNowWhenWaitTooLong) {
  // Same shape but the pool frees only after 8 h: starting now via the
  // global pool wins.
  const ClusterConfig cfg =
      custom_config(4, 4, gib(std::int64_t{64}), gib(std::int64_t{32}),
                    gib(std::int64_t{1024}));
  FakeContext ctx(cfg,
                  {job(0).nodes(1).mem_gib(96).walltime_h(8.0).runtime_h(8.0),
                   job(1).nodes(1).mem_gib(96).walltime_h(10.0).runtime_h(9.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  MemAwareOptions adaptive;
  adaptive.adaptive = true;
  MemAwareEasyScheduler sched(adaptive);
  sched.schedule(ctx);
  ASSERT_EQ(ctx.started().size(), 1u);
  EXPECT_GT(ctx.cluster().global_pool_used(), Bytes{0});
}

TEST(MemAwareEasy, AdaptiveMarginBiasesTowardStartingNow) {
  // With a margin larger than the benefit, the deferral is suppressed.
  const ClusterConfig cfg =
      custom_config(4, 4, gib(std::int64_t{64}), gib(std::int64_t{32}),
                    gib(std::int64_t{1024}));
  FakeContext ctx(cfg,
                  {job(0).nodes(1).mem_gib(96).walltime_h(0.25).runtime_h(0.25),
                   job(1).nodes(1).mem_gib(96).walltime_h(10.0).runtime_h(9.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  MemAwareOptions adaptive;
  adaptive.adaptive = true;
  adaptive.adaptive_margin_sec = 2.0 * 3600.0;  // demand a 2 h win
  MemAwareEasyScheduler sched(adaptive);
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started().size(), 1u);
}

TEST(MemAwareEasy, DepthTwoProtectsSecondBlockedJob) {
  // Running: 12 nodes until 4 h. Queue: J1 (16 nodes) reserved at 4 h,
  // J2 (16 nodes) reserved at 6 h, J3 (4 nodes, 5 h walltime).
  // J3 ends at 5 h: after J1's start (so it needs the what-if check) and it
  // would overlap J2's 16-node reservation window... with K=1 only J1 is
  // protected — J3 coexists with J1 at 4h? J1 takes 16 nodes at 4 h, J3
  // holds 4 until 5 h -> J1 cannot start at 4 h. So even K=1 rejects it.
  // Distinguishing case: J3 within J1's spare capacity but clashing J2.
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(12).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(2.0).runtime_h(2.0),
                   job(2).nodes(16).walltime_h(2.0).runtime_h(2.0),
                   job(3).nodes(4).walltime_h(5.0).runtime_h(5.0)});
  ctx.force_run(0);
  for (JobId i = 1; i <= 3; ++i) ctx.enqueue(i);
  // K=1: only J1 (12 nodes @ 4h) is protected. J3 (4 nodes, ends 5 h)
  // coexists with J1 (12+4=16) -> accepted, delaying J2 (16 nodes) to 7 h.
  {
    FakeContext easy1(tiny_cluster(),
                      {job(0).nodes(12).walltime_h(4.0).runtime_h(4.0),
                       job(1).nodes(12).walltime_h(2.0).runtime_h(2.0),
                       job(2).nodes(16).walltime_h(2.0).runtime_h(2.0),
                       job(3).nodes(4).walltime_h(5.0).runtime_h(5.0)});
    easy1.force_run(0);
    for (JobId i = 1; i <= 3; ++i) easy1.enqueue(i);
    MemAwareOptions k1;
    k1.reservation_depth = 1;
    MemAwareEasyScheduler sched(k1);
    sched.schedule(easy1);
    EXPECT_EQ(easy1.started(), (std::vector<JobId>{3}));
  }
  // K=2: J2's reservation (16 nodes at 6 h) is protected too; J3 running
  // until 5 h does not clash with it (ends before 6 h)... it IS accepted.
  // The clash case needs J3 to outlive 6 h:
  {
    FakeContext easy2(tiny_cluster(),
                      {job(0).nodes(12).walltime_h(4.0).runtime_h(4.0),
                       job(1).nodes(12).walltime_h(2.0).runtime_h(2.0),
                       job(2).nodes(16).walltime_h(2.0).runtime_h(2.0),
                       job(3).nodes(4).walltime_h(7.0).runtime_h(7.0)});
    easy2.force_run(0);
    for (JobId i = 1; i <= 3; ++i) easy2.enqueue(i);
    MemAwareOptions k2;
    k2.reservation_depth = 2;
    MemAwareEasyScheduler sched(k2);
    sched.schedule(easy2);
    EXPECT_TRUE(easy2.started().empty())
        << "J3 (ends 7 h) overlaps J2's 16-node reservation at 6 h";
  }
  // Same 7 h candidate under K=1: J2 is unprotected, so it IS backfilled
  // (it coexists with J1's 12-node reservation).
  {
    FakeContext easy1b(tiny_cluster(),
                       {job(0).nodes(12).walltime_h(4.0).runtime_h(4.0),
                        job(1).nodes(12).walltime_h(2.0).runtime_h(2.0),
                        job(2).nodes(16).walltime_h(2.0).runtime_h(2.0),
                        job(3).nodes(4).walltime_h(7.0).runtime_h(7.0)});
    easy1b.force_run(0);
    for (JobId i = 1; i <= 3; ++i) easy1b.enqueue(i);
    MemAwareOptions k1;
    k1.reservation_depth = 1;
    MemAwareEasyScheduler sched(k1);
    sched.schedule(easy1b);
    EXPECT_EQ(easy1b.started(), (std::vector<JobId>{3}));
  }
}

TEST(MemAwareEasy, DepthBeyondQueueIsSafe) {
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(16).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(8)});
  ctx.force_run(0);
  ctx.enqueue(1);
  MemAwareOptions deep;
  deep.reservation_depth = 64;
  MemAwareEasyScheduler sched(deep);
  sched.schedule(ctx);  // must not crash with depth > queue length
  EXPECT_TRUE(ctx.started().empty());
}

TEST(MemAwareEasy, ZeroDepthAborts) {
  MemAwareOptions bad;
  bad.reservation_depth = 0;
  EXPECT_DEATH(MemAwareEasyScheduler sched(bad), "reservation");
}

TEST(MemAwareEasy, NameReflectsMode) {
  MemAwareOptions plain;
  EXPECT_STREQ(MemAwareEasyScheduler(plain).name(), "mem-easy");
  MemAwareOptions adaptive;
  adaptive.adaptive = true;
  EXPECT_STREQ(MemAwareEasyScheduler(adaptive).name(), "adaptive");
}

TEST(MemAwareEasy, ToStringCoverage) {
  EXPECT_STREQ(to_string(BackfillOrder::kQueueOrder), "queue-order");
  EXPECT_STREQ(to_string(BackfillOrder::kShortestFirst), "shortest-first");
  EXPECT_STREQ(to_string(BackfillOrder::kBestMemFit), "best-mem-fit");
}

TEST(MemAwareEasy, EmptyQueueNoOp) {
  FakeContext ctx(tiny_cluster(), {});
  MemAwareEasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());
}


TEST(MemAwareEasy, ReserveHeadroomShieldsTheRackTierFromBackfills) {
  // One rack of 4 with a 32 GiB pool; job 0 holds 3 nodes for 4 h, the head
  // needs all 4 (blocked), and the candidate is a short deficit job whose
  // 24 GiB draw would leave only 8 GiB of the rack tier free. Without the
  // shield it backfills (ends before the head's reservation); with
  // reserve_headroom = 0.5 (16 GiB floor, read via Topology::headroom) the
  // scheduler skips it.
  const auto jobs = [] {
    return std::vector<Job>{
        job(0).nodes(3).walltime_h(4.0).runtime_h(4.0),
        job(1).nodes(4).walltime_h(1.0).runtime_h(1.0),
        job(2).nodes(1).mem_gib(40.0).walltime_h(1.0).runtime_h(1.0)};
  };
  {
    FakeContext ctx(testing::machine(4, 16.0, 32.0), jobs());
    ctx.force_run(0);
    ctx.enqueue(1);
    ctx.enqueue(2);
    MemAwareEasyScheduler sched;
    sched.schedule(ctx);
    EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
  }
  {
    FakeContext ctx(testing::machine(4, 16.0, 32.0), jobs());
    ctx.force_run(0);
    ctx.enqueue(1);
    ctx.enqueue(2);
    MemAwareEasyScheduler sched({.reserve_headroom = 0.5});
    sched.schedule(ctx);
    EXPECT_TRUE(ctx.started().empty())
        << "backfill drained the rack tier below the reserve";
  }
  {
    // A candidate within the reserve (8 GiB draw leaves 24 GiB free) still
    // backfills — the shield bounds tier depletion, it does not ban pools.
    FakeContext ctx(testing::machine(4, 16.0, 32.0),
                    {job(0).nodes(3).walltime_h(4.0).runtime_h(4.0),
                     job(1).nodes(4).walltime_h(1.0).runtime_h(1.0),
                     job(2).nodes(1).mem_gib(24.0).walltime_h(1.0)
                         .runtime_h(1.0)});
    ctx.force_run(0);
    ctx.enqueue(1);
    ctx.enqueue(2);
    MemAwareEasyScheduler sched({.reserve_headroom = 0.5});
    sched.schedule(ctx);
    EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
  }
}

TEST(MemAwareEasy, ReserveHeadroomShieldsTheGlobalTierSeparately) {
  // No rack tier, a 64 GiB global pool: a 24 GiB draw leaves 40 GiB free —
  // fine at reserve 0.5 (floor 32 GiB), refused at reserve 0.8 (51.2 GiB).
  const auto jobs = [] {
    return std::vector<Job>{
        job(0).nodes(3).walltime_h(4.0).runtime_h(4.0),
        job(1).nodes(4).walltime_h(1.0).runtime_h(1.0),
        job(2).nodes(1).mem_gib(40.0).walltime_h(1.0).runtime_h(1.0)};
  };
  {
    FakeContext ctx(testing::machine(4, 16.0, 0.0, 64.0), jobs());
    ctx.force_run(0);
    ctx.enqueue(1);
    ctx.enqueue(2);
    MemAwareEasyScheduler sched({.reserve_headroom = 0.5});
    sched.schedule(ctx);
    EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
  }
  {
    FakeContext ctx(testing::machine(4, 16.0, 0.0, 64.0), jobs());
    ctx.force_run(0);
    ctx.enqueue(1);
    ctx.enqueue(2);
    MemAwareEasyScheduler sched({.reserve_headroom = 0.8});
    sched.schedule(ctx);
    EXPECT_TRUE(ctx.started().empty())
        << "backfill drained the global tier below the reserve";
  }
}

// --- pinned runs across reservation depths ----------------------------------

/// One pinned cell: mem-easy at a reservation depth under a placement.
struct DepthPin {
  PlacementStrategy placement;
  std::size_t depth;
  bool adaptive;
  std::uint64_t digest;
};

// Event digests on a small disaggregated machine, recorded with a backfill
// what-if that recomputed every reservation in full: at every depth and
// under every routing, a what-if that stops early must accept and reject
// exactly the same backfills.
constexpr DepthPin kDepthPins[] = {
    {PlacementStrategy::kLocalFirst, 1, false, 10755298620274347889ULL},
    {PlacementStrategy::kLocalFirst, 2, false, 4244615361540703901ULL},
    {PlacementStrategy::kLocalFirst, 4, false, 18130721625505835267ULL},
    {PlacementStrategy::kBalanced, 1, false, 18249737031496051478ULL},
    {PlacementStrategy::kBalanced, 2, false, 9837208834498919289ULL},
    {PlacementStrategy::kBalanced, 4, false, 8440539841140511908ULL},
    {PlacementStrategy::kGlobalFallback, 1, false, 10682114945461566672ULL},
    {PlacementStrategy::kGlobalFallback, 2, false, 17046211143959332866ULL},
    {PlacementStrategy::kGlobalFallback, 4, false, 2116386518998897081ULL},
    {PlacementStrategy::kSharedNeighbors, 1, false, 4293941247934402904ULL},
    {PlacementStrategy::kSharedNeighbors, 2, false, 992920761508892520ULL},
    {PlacementStrategy::kSharedNeighbors, 4, false, 17634278064939137778ULL},
    {PlacementStrategy::kGlobalFallback, 2, true, 9399845636605672059ULL},
};

TEST(MemAwareEasy, DigestPinnedAcrossReservationDepths) {
  ExperimentConfig cfg;
  // 128 nodes in 4 racks of 32, half the reference node's memory local.
  cfg.cluster = custom_config(128, 32, gib(std::int64_t{128}),
                              gib(std::int64_t{1024}),
                              gib(std::int64_t{1024}));
  cfg.jobs = 400;
  cfg.seed = 7;
  cfg.target_load = 1.1;
  const Trace trace = make_workload(cfg);
  for (const DepthPin& pin : kDepthPins) {
    SCOPED_TRACE(std::string(to_string(pin.placement)) + " depth " +
                 std::to_string(pin.depth) +
                 (pin.adaptive ? " adaptive" : ""));
    MemAwareOptions opts;
    opts.reservation_depth = pin.depth;
    opts.adaptive = pin.adaptive;
    EngineOptions engine;
    engine.placement = make_placement(pin.placement);
    EagerTraceSource source(trace);
    SchedulingSimulation sim(cfg.cluster, source,
                             std::make_unique<MemAwareEasyScheduler>(opts),
                             engine);
    sim.run();
    EXPECT_EQ(sim.event_digest(), pin.digest);
  }
}

// The one-call depth-1 what-if (head_keeps_baseline) against the bounded
// re-fit it replaces (keeps_baseline), on random profiles: a random running
// set whose releases spread over the next day, a head whose baseline is
// placed on the release-only profile, then backfill candidates that hold
// their plan from now past the head's baseline start. Accepted candidates
// sometimes keep their hold, as the scheduler's do, so later candidates
// see holds that start at now.
struct WhatIfCounts {
  int accepts = 0;
  int rejects = 0;
};

void expect_one_call_equals_refit(const ClusterConfig& config,
                                  PlacementStrategy placement,
                                  ResourceAxes axes, std::uint64_t seed,
                                  WhatIfCounts& counts) {
  Rng rng(seed);
  const bool gpus = config.has_gpus();
  std::vector<Job> jobs;
  for (JobId id = 0; id < 400; ++id) {
    const std::int64_t wide = rng.bernoulli(0.2) ? 512 : 64;
    auto j = job(id)
                 .nodes(static_cast<std::int32_t>(rng.uniform_int(1, wide)))
                 .mem_gib(static_cast<double>(rng.uniform_int(32, 1024)))
                 .walltime_h(rng.uniform(1.0, 24.0));
    if (gpus && rng.bernoulli(0.5)) {
      j.gpus(static_cast<std::int32_t>(rng.uniform_int(1, 4)));
    }
    if (config.has_burst_buffer() && rng.bernoulli(0.3)) {
      j.bb_gib(static_cast<double>(rng.uniform_int(1, 512)));
    }
    jobs.push_back(j);
  }
  FakeContext ctx(config, jobs);
  ctx.set_placement(make_placement(placement));
  const SimTime now = hours(std::int64_t{12});
  // Running set: started over the last 12 hours, so most releases lie
  // ahead and a few are overdue. A quarter of the nodes stays free, so
  // candidates fit now and wide heads wait.
  JobId next = 0;
  for (; next < 150 && ctx.cluster().free_nodes_total() > 256; ++next) {
    ctx.set_now(hours(rng.uniform(0.0, 12.0)));
    if (plan_start(ctx.cluster(), ctx.job(next), ctx.placement())) {
      ctx.force_run(next);
    }
  }
  ctx.set_now(now);

  MemAwareOptions opts;
  opts.axes = axes;
  PlacementPolicy planning = ctx.placement();
  planning.axes = axes;
  FreeProfile profile;
  ASSERT_FALSE(profile.sync(ctx));
  ResourceState state;
  TakePlan plan;
  TakePlan take;
  int heads = 0;
  for (int round = 0; round < 400 && heads < 40; ++round) {
    profile.drop_holds();
    const JobId head = next + static_cast<JobId>(rng.uniform_int(0, 249));
    // The engine admits only jobs that fit the empty machine.
    if (!feasible_on_empty(config, ctx.job(head), planning)) continue;
    const FreeProfile::Mark base_mark = profile.mark();
    const std::vector<MemAwareEasyScheduler::Reservation> baseline =
        place_reservations(profile, std::vector<JobId>{head}, ctx, opts,
                           planning);
    profile.rollback(base_mark);
    const MemAwareEasyScheduler::Reservation& base = baseline.front();
    // A head that fits now starts instead of reserving.
    if (base.start == now) continue;
    ++heads;
    for (int k = 0; k < 40; ++k) {
      const JobId cand = next + static_cast<JobId>(rng.uniform_int(0, 249));
      if (cand == head ||
          !compute_take(profile.state_at(now), config, ctx.job(cand), planning,
                        take)) {
        continue;
      }
      // Any hold ending after the baseline start needs the what-if.
      const SimTime end =
          base.start + seconds(rng.uniform_int(1, 24 * 3600));
      const bool one_call = head_keeps_baseline(profile, base, take, ctx,
                                                planning, state, plan);
      const FreeProfile::Mark mark = profile.mark();
      profile.add_hold(now, end, take);
      const bool refit = keeps_baseline(profile, baseline, ctx, opts, planning);
      profile.rollback(mark);
      ASSERT_EQ(one_call, refit)
          << "round " << round << " head " << head << " candidate " << cand;
      ++(one_call ? counts.accepts : counts.rejects);
      if (one_call && rng.bernoulli(0.3)) profile.add_hold(now, end, take);
    }
  }
}

TEST(MemAwareEasyWhatIf, OneCallEqualsRefitOnThePaperMachine) {
  const ClusterConfig paper =
      custom_config(1024, 64, gib(std::int64_t{128}), gib(std::int64_t{2048}),
                    gib(std::int64_t{4096}));
  std::uint64_t seed = 100;
  for (const PlacementStrategy p : all_placement_strategies()) {
    SCOPED_TRACE(to_string(p));
    WhatIfCounts counts;
    for (int k = 0; k < 3; ++k) {
      expect_one_call_equals_refit(paper, p, ResourceAxes::memory_only(),
                                   ++seed, counts);
    }
    EXPECT_GT(counts.accepts, 100);
    EXPECT_GT(counts.rejects, 100);
  }
}

TEST(MemAwareEasyWhatIf, OneCallEqualsRefitOnAGpuMachine) {
  ClusterConfig gpu =
      custom_config(1024, 64, gib(std::int64_t{128}), gib(std::int64_t{2048}),
                    gib(std::int64_t{4096}));
  gpu.gpus_per_node = 4;
  gpu.bb_capacity = gib(std::int64_t{8192});
  std::uint64_t seed = 200;
  for (const PlacementStrategy p : all_placement_strategies()) {
    SCOPED_TRACE(to_string(p));
    WhatIfCounts counts;
    for (int k = 0; k < 3; ++k) {
      expect_one_call_equals_refit(gpu, p, ResourceAxes::all(), ++seed,
                                   counts);
    }
    EXPECT_GT(counts.accepts, 100);
    EXPECT_GT(counts.rejects, 20);
  }
}

// A warm pass with one reservation judges only the jobs queued since the
// pass that armed the cache. Jobs 2 and 3 would hold 4 nodes past the
// head's start at 4 h, when it needs all 16, so the first pass passes over
// them; job 4, queued after it, ends by 4 h and must start on the fast
// pass. Skipping one candidate more than the judged prefix misses it.
TEST(MemAwareEasyWarm, FirstArrivalAfterARejectedPrefixStartsOnTheFastPass) {
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(12).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(16).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(4).walltime_h(10.0).runtime_h(10.0),
                   job(3).nodes(4).walltime_h(10.0).runtime_h(10.0),
                   job(4).nodes(4).walltime_h(1.0).runtime_h(1.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  ctx.enqueue(3);
  MemAwareEasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());
  EXPECT_EQ(sched.stats()->jobs_examined, 3U);  // the head, 2 and 3

  ctx.set_now(seconds(1800.0));  // no release crossed: the sync stays clean
  ctx.enqueue(4);
  sched.schedule(ctx);
  EXPECT_EQ(sched.stats()->fast_passes, 1U);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{4}));
  // The fast pass judged the arrival alone.
  EXPECT_EQ(sched.stats()->jobs_examined, 4U);
}

// The candidates a warm pass skips still count against kBackfillWindow: a
// pass that judged a full window leaves an arrival unjudged, as a cold pass
// does, even one that would start.
TEST(MemAwareEasyWarm, AnArrivalPastAFullBackfillWindowWaitsAsOnAColdPass) {
  constexpr JobId kArrival = 2 + MemAwareEasyScheduler::kBackfillWindow;
  std::vector<Job> jobs = {job(0).nodes(12).walltime_h(4.0).runtime_h(4.0),
                           job(1).nodes(16).walltime_h(1.0).runtime_h(1.0)};
  for (JobId id = 2; id < kArrival; ++id) {
    jobs.push_back(job(id).nodes(4).walltime_h(10.0).runtime_h(10.0));
  }
  jobs.push_back(job(kArrival).nodes(4).walltime_h(1.0).runtime_h(1.0));
  FakeContext ctx(tiny_cluster(), jobs);
  ctx.force_run(0);
  for (JobId id = 1; id < kArrival; ++id) ctx.enqueue(id);
  MemAwareEasyScheduler warm;
  warm.schedule(ctx);
  ctx.set_now(seconds(1800.0));
  ctx.enqueue(kArrival);
  MemAwareEasyScheduler().schedule(ctx);  // the cold pass
  EXPECT_TRUE(ctx.started().empty());
  warm.schedule(ctx);
  EXPECT_EQ(warm.stats()->fast_passes, 1U);
  EXPECT_TRUE(ctx.started().empty());
  EXPECT_EQ(warm.stats()->jobs_examined,
            1 + MemAwareEasyScheduler::kBackfillWindow);
}

TEST(MemAwareEasy, SessionLifecycleReleasesEverything) {
  MemAwareEasyScheduler sched;
  testing::run_lifecycle_scenario(sched);
}

}  // namespace
}  // namespace dmsched
