#include "sched/easy.hpp"

#include <gtest/gtest.h>

#include "cluster/system_config.hpp"
#include "testing/builders.hpp"
#include "testing/fake_context.hpp"
#include "testing/lifecycle.hpp"

namespace dmsched {
namespace {

using testing::FakeContext;
using testing::job;
using testing::tiny_cluster;

TEST(Easy, StartsHeadRunWhenEverythingFits) {
  FakeContext ctx(tiny_cluster(), {job(0).nodes(8), job(1).nodes(8)});
  ctx.enqueue(0);
  ctx.enqueue(1);
  EasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{0, 1}));
}

TEST(Easy, BackfillsShortJobThatEndsBeforeShadow) {
  // Running: 8 nodes until t=4h. Head wants 12 -> shadow at 4h.
  // A 4-node 2h candidate ends before the shadow: backfill it.
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(8).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(4).walltime_h(2.0).runtime_h(2.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  EasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
}

TEST(Easy, RejectsBackfillThatWouldDelayHead) {
  // Candidate runs 6h > shadow(4h) and needs 6 nodes > extra(= 12-12+8-8...)
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(8).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(6).walltime_h(6.0).runtime_h(6.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  EasyScheduler sched;
  sched.schedule(ctx);
  // shadow = 4h, extra = (8 free + 8 released) - 12 = 4; candidate needs 6
  // nodes and outlives the shadow: reject.
  EXPECT_TRUE(ctx.started().empty());
}

TEST(Easy, BackfillsLongJobWithinExtraNodes) {
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(8).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(4).walltime_h(24.0).runtime_h(20.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  EasyScheduler sched;
  sched.schedule(ctx);
  // candidate outlives the shadow but uses only the 4 extra nodes
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
}

TEST(Easy, ExtraBudgetDecreasesAcrossBackfills) {
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(8).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(3).walltime_h(24.0).runtime_h(20.0),
                   job(3).nodes(3).walltime_h(24.0).runtime_h(20.0)});
  ctx.force_run(0);
  for (JobId i = 1; i <= 3; ++i) ctx.enqueue(i);
  EasyScheduler sched;
  sched.schedule(ctx);
  // extra = 4: job 2 (3 nodes) consumes it; job 3 (3 nodes) must not fit
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
}

TEST(Easy, MultipleShortBackfills) {
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(10).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(12).walltime_h(1.0).runtime_h(1.0),
                   job(2).nodes(3).walltime_h(1.0).runtime_h(1.0),
                   job(3).nodes(3).walltime_h(2.0).runtime_h(2.0)});
  ctx.force_run(0);
  for (JobId i = 1; i <= 3; ++i) ctx.enqueue(i);
  EasyScheduler sched;
  sched.schedule(ctx);
  // both candidates end before the 4h shadow and fit the 6 free nodes
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2, 3}));
}

TEST(Easy, EqualReleasesAtTheCrossingCountInIdOrder) {
  // Jobs 0 and 1 both release at 4h but started in the order 1, 0; job 2
  // releases first, at 2h. Head job 3 wants 13 nodes with 6 free: the 2h
  // release leaves it short (8), and it fits inside the 4h group. Taken by
  // id, job 0 (+2 -> 10) and then job 1 (+6 -> 16) cross with extra = 3;
  // taken in start order, job 1 alone crosses (14) with extra = 1.
  FakeContext ctx(tiny_cluster(),
                  {job(0).nodes(2).walltime_h(4.0).runtime_h(4.0),
                   job(1).nodes(6).walltime_h(4.0).runtime_h(4.0),
                   job(2).nodes(2).walltime_h(2.0).runtime_h(2.0),
                   job(3).nodes(13).walltime_h(1.0).runtime_h(1.0),
                   job(4).nodes(3).walltime_h(24.0).runtime_h(20.0)});
  ctx.force_run(1);
  ctx.force_run(0);
  ctx.force_run(2);
  ctx.enqueue(3);
  ctx.enqueue(4);
  EasyScheduler sched;
  sched.schedule(ctx);
  // The 3-node candidate outlives the 4h shadow and fits only the
  // id-ordered extra.
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{4}));
}

TEST(Easy, MemoryUnawareShadowIgnoresPoolPressure) {
  // THE baseline pathology this paper targets: the head is blocked on pool
  // bytes, nodes are free, so the node-only shadow is "now" and EASY lets a
  // pool-hungry candidate drain the memory the head is waiting for.
  const ClusterConfig cfg =
      custom_config(4, 4, gib(std::int64_t{64}), gib(std::int64_t{32}),
                    Bytes{0});
  FakeContext ctx(cfg,
                  {/*0: pins 16 GiB of pool*/
                   job(0).nodes(1).mem_gib(80).walltime_h(2.0).runtime_h(2.0),
                   /*1 (head): needs 32 GiB of pool, only 16 free*/
                   job(1).nodes(1).mem_gib(96).walltime_h(1.0).runtime_h(1.0),
                   /*2: needs 16 GiB of pool, 10h long*/
                   job(2).nodes(1).mem_gib(80).walltime_h(10.0).runtime_h(9.0)});
  ctx.force_run(0);
  ctx.enqueue(1);
  ctx.enqueue(2);
  EasyScheduler sched;
  sched.schedule(ctx);
  // memory-unaware EASY happily backfills job 2, starving the head
  EXPECT_EQ(ctx.started(), (std::vector<JobId>{2}));
  EXPECT_EQ(ctx.cluster().pool_free(0), Bytes{0});
}

TEST(Easy, HeadStartsViaPoolWhenAvailable) {
  FakeContext ctx(tiny_cluster(gib(std::int64_t{64})),
                  {job(0).nodes(2).mem_gib(90)});
  ctx.enqueue(0);
  EasyScheduler sched;
  sched.schedule(ctx);
  ASSERT_EQ(ctx.started().size(), 1u);
  EXPECT_LT(ctx.cluster().pool_free(0), gib(std::int64_t{64}));
}

TEST(Easy, EmptyQueueNoOp) {
  FakeContext ctx(tiny_cluster(), {});
  EasyScheduler sched;
  sched.schedule(ctx);
  EXPECT_TRUE(ctx.started().empty());
}


TEST(Easy, SessionLifecycleReleasesEverything) {
  EasyScheduler sched;
  testing::run_lifecycle_scenario(sched);
}

}  // namespace
}  // namespace dmsched
