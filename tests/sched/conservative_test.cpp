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


TEST(Conservative, SessionLifecycleReleasesEverything) {
  ConservativeScheduler sched;
  testing::run_lifecycle_scenario(sched);
}

}  // namespace
}  // namespace dmsched
