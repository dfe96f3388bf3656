// The incremental availability contract (sched/profile.hpp):
//  - AvailabilityTimeline unit behavior (push updates, version dirty flag);
//  - a randomized property test pinning the incremental FreeProfile (lazy
//    prefix-state cache, insert/rollback in arbitrary order) to a
//    from-scratch rebuild at every breakpoint;
//  - the scheduler-level fast passes (EASY, conservative) against a fresh
//    full recompute on identical state;
//  - the conservative hold-pricing drift regression (hold the plan that
//    started, not the profile's plan).
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "memory/placement.hpp"
#include "sched/conservative.hpp"
#include "sched/easy.hpp"
#include "sched/profile.hpp"
#include "testing/builders.hpp"
#include "testing/fake_context.hpp"
#include "testing/profile_oracle.hpp"
#include "topology/topology.hpp"

namespace dmsched {
namespace {

using testing::FakeContext;
using testing::job;
using testing::machine;
using testing::ProfileOracle;

std::int32_t total_free_nodes(const ResourceState& s) {
  return std::accumulate(s.free_nodes.begin(), s.free_nodes.end(),
                         std::int32_t{0});
}

void expect_states_equal(const ResourceState& a, const ResourceState& b) {
  EXPECT_EQ(a.free_nodes, b.free_nodes);
  EXPECT_EQ(a.pool_free, b.pool_free);
  EXPECT_EQ(a.global_free, b.global_free);
}

// ---------------------------------------------------------------------------
// AvailabilityTimeline: the engine-owned persistent structure.
// ---------------------------------------------------------------------------

TEST(AvailabilityTimeline, TracksStartsFinishesAndVersion) {
  const ClusterConfig config = machine(8, 64, /*rack_pool_gib=*/32,
                                       /*global_pool_gib=*/64);
  AvailabilityTimeline tl(config);
  const ResourceState empty = empty_state(config);
  expect_states_equal(tl.free_now(), empty);
  EXPECT_TRUE(tl.entries().empty());

  TakePlan first;
  first.takes.push_back({0, 2, gib(std::int64_t{8}), gib(std::int64_t{4})});
  const std::uint64_t v0 = tl.version();
  tl.on_start(7, seconds(std::int64_t{100}), first);
  EXPECT_GT(tl.version(), v0);
  EXPECT_EQ(tl.free_now().free_nodes[0], empty.free_nodes[0] - 2);
  EXPECT_EQ(tl.free_now().pool_free[0],
            empty.pool_free[0] - gib(std::int64_t{8}));
  EXPECT_EQ(tl.free_now().global_free,
            empty.global_free - gib(std::int64_t{4}));
  ASSERT_EQ(tl.entries().size(), 1u);
  EXPECT_EQ(tl.entries()[0].id, 7u);

  // An earlier release inserts *before* the existing entry.
  TakePlan second;
  second.takes.push_back({1, 1, Bytes{0}, Bytes{0}});
  tl.on_start(8, seconds(std::int64_t{50}), second);
  ASSERT_EQ(tl.entries().size(), 2u);
  EXPECT_EQ(tl.entries()[0].id, 8u);
  EXPECT_EQ(tl.entries()[1].id, 7u);

  tl.on_finish(7, seconds(std::int64_t{100}));
  ASSERT_EQ(tl.entries().size(), 1u);
  EXPECT_EQ(tl.entries()[0].id, 8u);
  tl.on_finish(8, seconds(std::int64_t{50}));
  expect_states_equal(tl.free_now(), empty);
  EXPECT_TRUE(tl.entries().empty());
}

TEST(AvailabilityTimeline, EqualTimeEntriesKeepStartOrder) {
  const ClusterConfig config = machine(16, 64);
  AvailabilityTimeline tl(config);
  TakePlan one;
  one.takes.push_back({0, 1, Bytes{0}, Bytes{0}});
  const SimTime t = seconds(std::int64_t{500});
  tl.on_start(3, t, one);
  tl.on_start(1, t, one);
  tl.on_start(2, t, one);
  // A rebuild over the running list sorts by (time, start order); pushes at
  // an equal time must land after the existing run, preserving it.
  ASSERT_EQ(tl.entries().size(), 3u);
  EXPECT_EQ(tl.entries()[0].id, 3u);
  EXPECT_EQ(tl.entries()[1].id, 1u);
  EXPECT_EQ(tl.entries()[2].id, 2u);
  tl.on_finish(1, t);
  ASSERT_EQ(tl.entries().size(), 2u);
  EXPECT_EQ(tl.entries()[0].id, 3u);
  EXPECT_EQ(tl.entries()[1].id, 2u);
}

TEST(AvailabilityTimeline, IdentityIsProcessUnique) {
  const ClusterConfig config = machine(8, 64);
  const AvailabilityTimeline a(config);
  const AvailabilityTimeline b(config);
  EXPECT_NE(a.id(), b.id());
}

// ---------------------------------------------------------------------------
// FreeProfile: randomized incremental-vs-rebuild equivalence.
// ---------------------------------------------------------------------------

TEST(FreeProfileProperty, RandomOpsMatchFromScratchRebuild) {
  const ClusterConfig config = machine(32, 64, /*rack_pool_gib=*/128,
                                       /*global_pool_gib=*/512);
  const PlacementPolicy policy{NodeSelection::kPoolAware,
                               PoolRouting::kRackThenGlobal};
  Rng rng(20260807);
  const SimTime t0 = seconds(std::int64_t{1000});

  const auto random_job = [&]() {
    Job j;
    j.id = 0;
    j.nodes = static_cast<std::int32_t>(rng.uniform_int(1, 5));
    j.mem_per_node = gib(rng.uniform(16.0, 96.0));
    return j;
  };

  // A partially busy machine: the committed plans come back as releases.
  ResourceState busy = empty_state(config);
  std::vector<std::pair<SimTime, TakePlan>> initial;
  for (int i = 0; i < 8; ++i) {
    const Job j = random_job();
    const auto plan = compute_take(busy, config, j, policy);
    if (!plan) continue;
    apply_take(busy, *plan);
    initial.emplace_back(t0 + seconds(rng.uniform(0.0, 150000.0)), *plan);
  }
  ASSERT_GE(initial.size(), 4u);

  // The op log both profiles must agree on. Rollbacks truncate it exactly
  // like FreeProfile::rollback truncates the delta vector.
  struct Op {
    bool hold;
    SimTime a;
    SimTime b;
    TakePlan take;
  };
  std::vector<Op> ops;
  // The releases below return jobs planned on the idle machine that `busy`
  // never counted: the profiles declare a machine deep enough to have run
  // them all.
  const ClusterConfig deep = testing::deepened(config, 1024);
  // The live profile, shadowed by the oracle's from-scratch delta log.
  ProfileOracle live(busy, t0, &deep);
  for (const auto& [t, take] : initial) {
    live.add_release(t, take);
    ops.push_back({false, t, SimTime{}, take});
  }

  const auto verify = [&]() {
    FreeProfile fresh(busy, t0, &deep);
    for (const Op& op : ops) {
      if (op.hold) {
        fresh.add_hold(op.a, op.b, op.take);
      } else {
        fresh.add_release(op.a, op.take);
      }
    }
    // Same delta count, and at every breakpoint of the log the live
    // profile, the rebuild and the from-scratch fold all agree.
    ASSERT_EQ(live.profile().mark(), fresh.mark());
    const auto points = live.breakpoints();
    for (std::size_t i = 0; i < points.size(); ++i) {
      expect_states_equal(live.profile().state_at(points[i]),
                          fresh.state_at(points[i]));
      expect_states_equal(live.profile().state_at(points[i]),
                          live.state_at(points[i]));
      EXPECT_TRUE(live.keeps_totals_at(points[i]));
      // Also probe strictly between breakpoints (piecewise-constant spans).
      const SimTime mid =
          points[i] + (i + 1 < points.size()
                           ? usec((points[i + 1] - points[i]).usec() / 2)
                           : seconds(std::int64_t{1}));
      expect_states_equal(live.profile().state_at(mid), fresh.state_at(mid));
      expect_states_equal(live.profile().state_at(mid), live.state_at(mid));
    }
  };

  std::vector<std::pair<FreeProfile::Mark, std::size_t>> marks;
  int holds_added = 0;
  int releases_added = 0;
  int rollbacks = 0;
  for (int step = 0; step < 1500; ++step) {
    const double r = rng.uniform();
    if (r < 0.40) {
      // Query at an arbitrary time: warms the lazy prefix-state cache in a
      // random order, so later inserts must invalidate mid-cache rows.
      const SimTime t = t0 + seconds(rng.uniform(0.0, 250000.0));
      const ResourceState s = live.profile().state_at(t);
      ASSERT_GE(total_free_nodes(s), 0);
    } else if (r < 0.58) {
      // A release (always feasible: planned against the empty machine);
      // sometimes in the past, exercising the fold-into-base clamp.
      const auto plan =
          compute_take(empty_state(config), config, random_job(), policy);
      ASSERT_TRUE(plan.has_value());
      const SimTime t = t0 + seconds(rng.uniform(-900.0, 200000.0));
      live.add_release(t, *plan);
      ops.push_back({false, t, SimTime{}, *plan});
      ++releases_added;
    } else if (r < 0.90) {
      // A hold over a window where its plan stays subtractable — the same
      // feasibility sweep the schedulers run before reserving.
      const SimTime start = t0 + seconds(rng.uniform(0.0, 150000.0));
      const SimTime end = start + seconds(rng.uniform(100.0, 40000.0));
      const auto plan = compute_take(live.profile().state_at(start), config,
                                     random_job(), policy);
      if (!plan) continue;
      bool feasible = true;
      for (const SimTime u : live.breakpoints()) {
        if (u <= start || u >= end) continue;
        if (!can_apply(live.profile().state_at(u), *plan)) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      live.add_hold(start, end, *plan);
      ops.push_back({true, start, end, *plan});
      ++holds_added;
    } else if (r < 0.96 || marks.empty()) {
      marks.emplace_back(live.mark(), ops.size());
    } else {
      const auto [m, n] = marks.back();
      marks.pop_back();
      live.rollback(m);
      ops.resize(n);
      ++rollbacks;
    }
    if (step % 150 == 149) verify();
  }
  verify();
  // The sequence must actually have exercised every op kind.
  EXPECT_GT(holds_added, 100);
  EXPECT_GT(releases_added, 100);
  EXPECT_GT(rollbacks, 5);
}

// ---------------------------------------------------------------------------
// FreeProfile::sync: the push-based invalidation contract.
// ---------------------------------------------------------------------------

TEST(FreeProfileSync, CleanSyncCarriesHoldsAndRebuildDropsThem) {
  FakeContext ctx(machine(8, 64),
                  {job(0).nodes(4).walltime_h(2.0), job(1)});
  ctx.force_run(0);

  FreeProfile profile;
  EXPECT_FALSE(profile.sync(ctx));  // first sync always rebuilds
  TakePlan hold;  // one node in rack 1 (job 0 fills rack 0)
  hold.takes.push_back({1, 1, Bytes{0}, Bytes{0}});
  profile.add_hold(seconds(std::int64_t{100}), seconds(std::int64_t{200}),
                   hold);

  // Nothing moved: the clean path keeps the tentative hold.
  EXPECT_TRUE(profile.sync(ctx));
  EXPECT_EQ(total_free_nodes(profile.state_at(seconds(std::int64_t{150}))),
            8 - 4 - 1);

  // Advancing now without crossing a delta stays clean too.
  ctx.set_now(seconds(std::int64_t{10}));
  EXPECT_TRUE(profile.sync(ctx));
  EXPECT_EQ(profile.now(), seconds(std::int64_t{10}));

  // A finish bumps the timeline version: full rebuild, holds dropped.
  ctx.finish(0);
  EXPECT_FALSE(profile.sync(ctx));
  EXPECT_EQ(total_free_nodes(profile.state_at(seconds(std::int64_t{150}))),
            8);
}

// ---------------------------------------------------------------------------
// Scheduler fast passes vs. a fresh full recompute on identical state.
// ---------------------------------------------------------------------------

TEST(EasyIncremental, FastPassMatchesFreshScheduler) {
  const std::vector<Job> jobs = {
      job(0).nodes(6).walltime_h(4.0),  // running: fills 6 of 8 nodes
      job(1).nodes(4).walltime_h(2.0),  // head: blocked on nodes
      job(2).nodes(3).walltime_h(1.0),  // would end before the shadow, but
                                        // the machine lacks 3 free nodes
      job(3).nodes(2).walltime_h(5.0),  // late arrival: fits the extra budget
  };
  FakeContext ctx(machine(8, 64), jobs);
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);

  EasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());  // converged pass arms the cache

  // Nothing moved, time advanced: the cached pass must not re-decide.
  ctx.set_now(seconds(std::int64_t{600}));
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());

  // A new arrival is judged incrementally off the cached shadow budget.
  ctx.enqueue(3);
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{3}));

  // A fresh scheduler recomputing the same state from scratch agrees.
  FakeContext ref(machine(8, 64), jobs);
  ref.force_run(0);
  ref.set_now(seconds(std::int64_t{600}));
  ref.enqueue(1);
  ref.enqueue(2);
  ref.enqueue(3);
  EasyScheduler fresh;
  fresh.schedule(ref);
  EXPECT_EQ(ref.started(), ctx.started());

  // A finish invalidates the cache: the freed nodes start the head.
  ctx.finish(0);
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{3, 1}));
}

TEST(ConservativeIncremental, FastPassFitsOnlyNewArrivals) {
  const std::vector<Job> jobs = {
      job(0).nodes(6).walltime_h(4.0),  // running
      job(1).nodes(8).walltime_h(2.0),  // head: reserved at the 4 h drain
      job(2).nodes(2).walltime_h(3.0),  // arrival: fits before the hold
      job(3).nodes(2).walltime_h(6.0),  // arrival: does not fit now
  };
  FakeContext ctx(machine(8, 64), jobs);
  ctx.force_run(0);
  ctx.enqueue(1);

  ConservativeScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());

  // Fast pass: only the new arrival is fitted, behind the retained hold.
  ctx.enqueue(2);
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));

  // The start moved resources, so this pass resyncs from scratch.
  ctx.enqueue(3);
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));

  // Replaying the same sequence with a fresh scheduler each pass (no cache
  // => every pass recomputes) must decide identically.
  FakeContext ref(machine(8, 64), jobs);
  ref.force_run(0);
  ref.enqueue(1);
  ConservativeScheduler{}.schedule(ref);
  ref.enqueue(2);
  ConservativeScheduler{}.schedule(ref);
  ref.enqueue(3);
  ConservativeScheduler{}.schedule(ref);
  EXPECT_EQ(ref.started(), ctx.started());
}

// ---------------------------------------------------------------------------
// Conservative hold-pricing drift regression.
// ---------------------------------------------------------------------------

// An overdue release (a job running past its walltime bound) makes the
// profile more optimistic than the ledger: here the profile plans job A's
// memory deficit out of rack 1's pool (which the ledger knows is still
// busy), while the live planner routes it through the global pool at a
// higher dilation. The hold recorded for A must price the plan that
// actually started — global bytes, 1.09 dilation, release at 3.09 h — or
// every later reservation in the pass is computed against a fiction. Job C
// (1.075 h) backfills only under the corrected bound; holding the profile's
// rack-pool plan (1.06 dilation, release at 3.06 h) would push the head's
// reservation earlier and reject C.
TEST(ConservativeIncremental, HoldsPriceTheStartedPlanNotTheProfilePlan) {
  const std::vector<Job> jobs = {
      job(0).nodes(2).mem_gib(80.0).walltime_h(10.0),  // drains rack 0 pool
      job(1).nodes(2).mem_gib(80.0).walltime_h(1.0),   // overruns its bound
      job(2).nodes(2).mem_gib(80.0).walltime_h(1.0),   // A: starts now
      job(3).nodes(6).walltime_h(5.0),                 // B: head reservation
      job(4).nodes(2).walltime_h(1.075),               // C: marginal backfill
  };
  FakeContext ctx(machine(8, 64, /*rack_pool_gib=*/32, /*global_pool_gib=*/64),
                  jobs);
  ctx.set_placement({NodeSelection::kPoolAware, PoolRouting::kRackThenGlobal});
  ctx.force_run(0);  // rack 0: 2 nodes + its whole 32 GiB pool
  ctx.force_run(1);  // rack 1: 2 nodes + its whole 32 GiB pool
  // Past job 1's dilated bound (1.06 h) with the job still running: its
  // release is overdue, so the synced profile folds rack 1's nodes and pool
  // back in while the ledger still holds them.
  ctx.set_now(seconds(2.0 * 3600.0));
  ctx.enqueue(2);
  ctx.enqueue(3);
  ctx.enqueue(4);

  ConservativeScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2, 4}));
  // A's deficit really came from the global pool, not a rack pool.
  const RunningJob* a = ctx.running_record(2);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->take.rack_pool_total(), Bytes{0});
  EXPECT_EQ(a->take.global_total(), gib(std::int64_t{32}));
}

// ---------------------------------------------------------------------------
// EASY shadow walk: equal expected ends break ties by job id.
// ---------------------------------------------------------------------------

// Two running jobs release at exactly the same instant. The shadow walk
// accumulates releases in (expected_end, id) order, so which job crosses
// the head's node threshold — and therefore how much extra budget is left
// for backfill — depends on the id tie-break alone.
TEST(EasyShadow, EqualEndTieBreaksTowardSmallerId) {
  const std::vector<Job> jobs = {
      job(0).nodes(2).walltime_h(4.0),
      job(1).nodes(4).walltime_h(4.0),
      job(2).nodes(4).walltime_h(1.0),  // head
      job(3).nodes(2).walltime_h(5.0),  // outlives the shadow
  };
  FakeContext ctx(machine(8, 64), jobs);
  ctx.force_run(0);
  ctx.force_run(1);
  ctx.enqueue(2);
  ctx.enqueue(3);
  EasyScheduler sched;
  sched.schedule(ctx);
  // Walk: 2 free + job 0's 2 nodes == head's 4 ⇒ shadow at 4 h, extra 0.
  // Job 3 outlives the shadow and there is no extra: it must wait. (Visiting
  // job 1 first would leave extra 2 and wrongly start it.)
  EXPECT_TRUE(ctx.started().empty());

  // The same machine with the running list built in the opposite order must
  // decide identically: the walk sorts by (expected_end, id), not by
  // whatever order the context happens to iterate the running set in.
  FakeContext rev(machine(8, 64), jobs);
  rev.force_run(1);
  rev.force_run(0);
  rev.enqueue(2);
  rev.enqueue(3);
  EasyScheduler sched2;
  sched2.schedule(rev);
  EXPECT_TRUE(rev.started().empty());
}

TEST(EasyShadow, SwappedWidthsFlipTheExtraBudget) {
  const std::vector<Job> jobs = {
      job(0).nodes(4).walltime_h(4.0),
      job(1).nodes(2).walltime_h(4.0),
      job(2).nodes(4).walltime_h(1.0),  // head
      job(3).nodes(2).walltime_h(5.0),  // fits the extra budget
  };
  FakeContext ctx(machine(8, 64), jobs);
  ctx.force_run(0);
  ctx.force_run(1);
  ctx.enqueue(2);
  ctx.enqueue(3);
  EasyScheduler sched;
  sched.schedule(ctx);
  // Same machine, node counts swapped: job 0's 4 nodes cross the threshold
  // with 2 to spare, so job 3 backfills against the extra budget.
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{3}));
}

}  // namespace
}  // namespace dmsched
