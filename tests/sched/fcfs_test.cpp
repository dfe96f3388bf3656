#include "sched/fcfs.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"
#include "testing/fake_context.hpp"
#include "testing/lifecycle.hpp"

namespace dmsched {
namespace {

using testing::FakeContext;
using testing::job;
using testing::tiny_cluster;

TEST(Fcfs, StartsEverythingThatFits) {
  FakeContext ctx(tiny_cluster(), {job(0).nodes(4), job(1).nodes(4),
                                   job(2).nodes(8)});
  for (JobId i = 0; i < 3; ++i) ctx.enqueue(i);
  FcfsScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{0, 1, 2}));
  EXPECT_EQ(ctx.cluster().free_nodes_total(), 0);
}

TEST(Fcfs, HeadBlocksTail) {
  // head needs 12 nodes, only 8 free: nothing behind it may start
  FakeContext ctx(tiny_cluster(), {job(0).nodes(8), job(1).nodes(12),
                                   job(2).nodes(1)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  FcfsScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty()) << "FCFS must not skip the head";
}

TEST(Fcfs, MemoryBlockedHeadAlsoBlocks) {
  // pool = 32 GiB; head's deficit needs 40 -> blocked even with free nodes
  FakeContext ctx(tiny_cluster(gib(std::int64_t{32})),
                  {job(0).nodes(1).mem_gib(104),  // deficit 40 > pool
                   job(1).nodes(1).mem_gib(8)});
  ctx.enqueue(0);
  ctx.enqueue(1);
  FcfsScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());
}

TEST(Fcfs, ProcessesQueueInPolicyOrder) {
  FakeContext ctx(tiny_cluster(), {job(0).at_h(2.0).nodes(2),
                                   job(1).at_h(1.0).nodes(2)});
  ctx.set_now(hours(3));
  ctx.enqueue(1);
  ctx.enqueue(0);
  FcfsScheduler sched;
  sched.schedule(ctx);
  // job 1 submitted earlier: starts first despite its higher id
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{1, 0}));
}

TEST(Fcfs, ResumesAfterCompletion) {
  FakeContext ctx(tiny_cluster(), {job(0).nodes(16), job(1).nodes(16)});
  ctx.force_run(0);
  ctx.enqueue(1);
  FcfsScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());
  ctx.finish(0);
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{1}));
}

TEST(Fcfs, DeficitJobStartsWhenPoolAvailable) {
  FakeContext ctx(tiny_cluster(gib(std::int64_t{64})),
                  {job(0).nodes(2).mem_gib(80)});
  ctx.enqueue(0);
  FcfsScheduler sched;
  sched.schedule(ctx);
  ASSERT_EQ(ctx.started().size(), 1u);
  // 2 nodes × 16 GiB deficit drawn from rack 0's pool
  EXPECT_EQ(ctx.cluster().pool_free(0), gib(std::int64_t{32}));
}

TEST(Fcfs, EmptyQueueNoOp) {
  FakeContext ctx(tiny_cluster(), {});
  FcfsScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());
}


TEST(Fcfs, SessionLifecycleReleasesEverything) {
  FcfsScheduler sched;
  testing::run_lifecycle_scenario(sched);
}

}  // namespace
}  // namespace dmsched
