#include "sched/conservative.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/system_config.hpp"
#include "testing/builders.hpp"
#include "testing/fake_context.hpp"
#include "testing/lifecycle.hpp"

namespace dmsched {
namespace {

using testing::FakeContext;
using testing::job;
using testing::tiny_cluster;

TEST(Conservative, StartsJobsThatFitNow) {
  FakeContext ctx(tiny_cluster(), {job(0).nodes(8), job(1).nodes(8)});
  ctx.enqueue(0);
  ctx.enqueue(1);
  ConservativeScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{0, 1}));
}

TEST(Conservative, BackfillsJobThatDelaysNobody) {
  // Running: 8 nodes until 4h. Queue: [12-node head, 4-node 2h candidate].
  // The candidate finishes before the head's reservation: start it.
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(8).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(4).walltime_h(2.0).runtime_h(2.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  ConservativeScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
}

TEST(Conservative, RejectsBackfillThatDelaysAnyReservation) {
  // Unlike EASY's extra-node rule, conservative must protect EVERY queued
  // job's reservation. Candidate 3 would fit EASY's spare-node rule but
  // delays job 2's reservation (which starts when job 0's nodes free).
  FakeContext ctx(
      tiny_cluster(),
      {job(0).nodes(12).walltime_h(4.0).runtime_h(4.0),
       job(1).nodes(16).walltime_h(2.0).runtime_h(2.0),   // head: at 4h
       job(2).nodes(16).walltime_h(2.0).runtime_h(2.0),   // next: at 6h
       job(3).nodes(4).walltime_h(3.0).runtime_h(3.0)});  // would end 3h->ok
  ctx.force_run(0);
  for (JobId i = 1; i <= 3; ++i) ctx.enqueue(i);
  ConservativeScheduler sched;
  sched.schedule(ctx);
  // job 3 ends at 3h, before the head's 4h reservation AND before job 2's
  // 6h reservation -> it may start on the 4 free nodes.
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{3}));
}

TEST(Conservative, LongCandidateBlockedByLaterReservation) {
  FakeContext ctx(
      tiny_cluster(),
      {job(0).nodes(12).walltime_h(4.0).runtime_h(4.0),
       job(1).nodes(16).walltime_h(2.0).runtime_h(2.0),  // reserved at 4h
       job(2).nodes(4).walltime_h(10.0).runtime_h(9.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  ConservativeScheduler sched;
  sched.schedule(ctx);
  // job 2 on the 4 free nodes would run until 10h, overlapping job 1's
  // 16-node reservation at 4h: conservative refuses what EASY would too,
  // but critically it refuses even with a *later* overlapping reservation.
  EXPECT_TRUE(ctx.started().empty());
}

TEST(Conservative, PoolReservationsAreProtected) {
  // Head waits on pool bytes; a pool-draining candidate must be rejected
  // (contrast with EasyScheduler's memory-unaware behaviour).
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
  ConservativeScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty())
      << "candidate would drain the pool the head's reservation needs";
}

/// Whether a 1-node, 1 h job starts now when `blocked` 16-node jobs queue
/// ahead of it, on a machine whose other 15 nodes are busy for 4 h (the
/// free node is its only fit, and it ends before the first reservation).
bool starts_behind(std::size_t blocked) {
  std::vector<Job> jobs = {job(0).nodes(15).walltime_h(4.0).runtime_h(4.0)};
  for (std::size_t k = 0; k < blocked; ++k) {
    jobs.push_back(job(static_cast<JobId>(jobs.size())).nodes(16));
  }
  const auto last = static_cast<JobId>(jobs.size());
  jobs.push_back(job(last).nodes(1).walltime_h(1.0).runtime_h(1.0));
  FakeContext ctx(tiny_cluster(), std::move(jobs));
  ctx.force_run(0);
  for (JobId i = 1; i <= last; ++i) ctx.enqueue(i);
  ConservativeScheduler sched;
  sched.schedule(ctx);
  return ctx.started() == std::vector<JobId>{last};
}

TEST(Conservative, WindowCapsWorkPerPass) {
  // A pass reserves for kWindow queued jobs: the 1-node job starts as the
  // last of them, and is never examined one place further back.
  EXPECT_TRUE(starts_behind(ConservativeScheduler::kWindow - 1));
  EXPECT_FALSE(starts_behind(ConservativeScheduler::kWindow));
}

TEST(Conservative, EmptyQueueNoOp) {
  FakeContext ctx(tiny_cluster(), {});
  ConservativeScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());
}

// --- kept reservations -------------------------------------------------------
// A full pass keeps the last pass's reservation when nothing that changed
// since can reach it: every change (completions, own starts after it in pass
// order) ends by its start, so only starts before that gate are swept.

/// How many plans and candidates one pass of `sched` counted.
struct PassCounts {
  std::uint64_t examined = 0;
  std::uint64_t plans = 0;
};

PassCounts run_counted(ConservativeScheduler& sched, FakeContext& ctx) {
  const SchedulerStats before = *sched.stats();
  sched.schedule(ctx);
  return {sched.stats()->jobs_examined - before.jobs_examined,
          sched.stats()->plans_attempted - before.plans_attempted};
}

/// Running: 8 nodes until 2 h (racks 0-1) and 8 until 4 h (racks 2-3).
/// Queue: a 16-node 1 h job (reserved at 4 h), then an 8-node 1.5 h one
/// (reserved at 2 h, ending before the first).
std::vector<Job> completion_jobs() {
  return {job(0).nodes(8).walltime_h(2.0).runtime_h(2.0),
          job(1).nodes(8).walltime_h(4.0).runtime_h(4.0),
          job(2).nodes(16).walltime_h(1.0).runtime_h(1.0),
          job(3).nodes(8).walltime_h(1.5).runtime_h(1.5)};
}

TEST(ConservativeKept, CompletionBeforeAKeptReservationMovesItEarlier) {
  FakeContext ctx(tiny_cluster(), completion_jobs());
  ctx.force_run(0);
  ctx.force_run(1);
  ctx.enqueue(2);
  ctx.enqueue(3);
  ConservativeScheduler sched;
  sched.schedule(ctx);
  ASSERT_TRUE(ctx.started().empty());

  // Job 1 ends at 1 h, 3 h early. Job 2's reservation at 4 h is at its
  // gate (job 1's old end), so only starts before 4 h are swept: at 2 h,
  // when job 0 releases, the whole machine is free and job 2 moves there.
  // Job 3 now fits on racks 2-3 from 1 h, but would run into 2 h: it must
  // wait behind job 2's new reservation, not the old one.
  ctx.set_now(hours(1));
  ctx.finish(1);
  const PassCounts moved = run_counted(sched, ctx);
  EXPECT_TRUE(ctx.started().empty());
  EXPECT_EQ(moved.examined, 2U);
  EXPECT_EQ(moved.plans, 2U);  // job 2 moved, so job 3 is swept in full

  ctx.set_now(hours(2));
  ctx.finish(0);
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
}

TEST(ConservativeKept, CompletionEndingAfterAReservationForcesItsSweep) {
  // Running: 8 nodes until 2 h (racks 0-1), 4 until 4 h (rack 2). An 8-node
  // 1 h job is reserved at 2 h. Job 1 ends at 1 h: its old end (4 h) lies
  // past the reservation, so the rows the reservation read may have
  // changed and it is swept from now. It fits now, on racks 2-3.
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(8).walltime_h(2.0).runtime_h(2.0),
                   job(1).nodes(4).walltime_h(4.0).runtime_h(4.0),
                   job(2).nodes(8).walltime_h(1.0).runtime_h(1.0)});
  ctx.force_run(0);
  ctx.force_run(1);
  ctx.enqueue(2);
  ConservativeScheduler sched;
  sched.schedule(ctx);
  ASSERT_TRUE(ctx.started().empty());

  ctx.set_now(hours(1));
  ctx.finish(1);
  const PassCounts swept = run_counted(sched, ctx);
  EXPECT_EQ(swept.plans, 1U);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
}

/// One pass starts a 4-node job on rack 3 behind a 12-node job reserved at
/// 2 h; the next pass (at 0.5 h, nothing else changed) replans. Returns
/// that pass's counts.
PassCounts replan_after_own_start(double started_walltime_h) {
  FakeContext ctx(
      tiny_cluster(),
      {job(0).nodes(12).walltime_h(2.0).runtime_h(2.0),
       job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
       job(2).nodes(4).walltime_h(started_walltime_h).runtime_h(0.5)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  ConservativeScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
  ctx.set_now(seconds(1800.0));
  return run_counted(sched, ctx);
}

TEST(ConservativeKept, OwnStartAfterAReservationGatesItByItsEnd) {
  // Job 1's reservation at 2 h was fitted before job 2 started. Job 2's
  // take is new to every row before its end: ending at 1 h it leaves the
  // rows from 2 h alone and job 1 keeps its reservation unswept; ending at
  // 3 h it covers them, and job 1 is swept again.
  const PassCounts before = replan_after_own_start(1.0);
  EXPECT_EQ(before.examined, 1U);
  EXPECT_EQ(before.plans, 0U);
  const PassCounts after = replan_after_own_start(3.0);
  EXPECT_EQ(after.examined, 1U);
  EXPECT_EQ(after.plans, 1U);
}

TEST(ConservativeKept, KeptReservationAtNowStartsOnTheLivePlan) {
  // Job 0 (rack 0) is due at 1 h but still runs at 2 h; job 1 (racks 1-3)
  // ends on time at 2 h. Job 2 was reserved at 2 h on racks 0-1 of an
  // empty machine. At 2 h the reservation stands (its gate is 2 h), so it
  // starts unswept, but on the plan the live cluster gives: racks 1-2.
  // Job 3, reserved at 1 h behind it, is swept again and starts on rack 3.
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(4).walltime_h(1.0).runtime_h(1.0),
                   job(1).nodes(12).walltime_h(2.0).runtime_h(2.0),
                   job(2).nodes(8).walltime_h(1.0).runtime_h(1.0),
                   job(3).nodes(4).walltime_h(1.0).runtime_h(1.0)});
  ctx.force_run(0);
  ctx.force_run(1);
  ctx.enqueue(2);
  ctx.enqueue(3);
  ConservativeScheduler sched;
  sched.schedule(ctx);
  ASSERT_TRUE(ctx.started().empty());

  ctx.set_now(hours(2));
  ctx.finish(1);
  const PassCounts counts = run_counted(sched, ctx);
  EXPECT_EQ(counts.examined, 2U);
  EXPECT_EQ(counts.plans, 1U);  // job 2 kept, job 3 swept
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2, 3}));
  const RunningJob* kept = ctx.running_record(2);
  ASSERT_NE(kept, nullptr);
  std::vector<RackId> racks;
  for (const RackTake& t : kept->take.takes) {
    if (t.nodes > 0) racks.push_back(t.rack);
  }
  EXPECT_EQ(racks, (std::vector<RackId>{1, 2}));
}


TEST(Conservative, SessionLifecycleReleasesEverything) {
  ConservativeScheduler sched;
  testing::run_lifecycle_scenario(sched);
}

}  // namespace
}  // namespace dmsched
