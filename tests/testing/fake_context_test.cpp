// The test harness deserves tests too: SimSession's time/audit semantics and
// the one-line machine() builder are load-bearing for every scheduler test.
#include "testing/fake_context.hpp"

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "testing/builders.hpp"

namespace dmsched::testing {
namespace {

TEST(Machine, BuilderFillsEveryField) {
  const ClusterConfig c = machine(16, 64.0, 32.0, 128.0);
  EXPECT_EQ(c.total_nodes, 16);
  EXPECT_EQ(c.nodes_per_rack, 4);
  EXPECT_EQ(c.racks(), 4);
  EXPECT_EQ(c.local_mem_per_node, gib(std::int64_t{64}));
  EXPECT_EQ(c.pool_per_rack, gib(std::int64_t{32}));
  EXPECT_EQ(c.global_pool, gib(std::int64_t{128}));
}

TEST(Machine, PoolsDefaultToZero) {
  const ClusterConfig c = machine(8, 32.0);
  EXPECT_TRUE(c.pool_per_rack.is_zero());
  EXPECT_TRUE(c.global_pool.is_zero());
}

TEST(SimSession, AdvancesNowMonotonically) {
  SimSession s(machine(4, 64.0), {job(0)});
  EXPECT_EQ(s->now(), SimTime{});
  s.advance_h(1.0);
  EXPECT_EQ(s->now(), hours(1));
  s.advance_s(30.0);
  EXPECT_EQ(s->now(), hours(1) + seconds(std::int64_t{30}));
  s.advance(SimTime{0});  // zero advance is allowed (same-timestamp passes)
  EXPECT_EQ(s->now(), hours(1) + seconds(std::int64_t{30}));
}

TEST(SimSession, DrivesASchedulerThroughAFullJobLifecycle) {
  SimSession s(machine(4, 64.0),
               {job(0).nodes(2).mem_gib(32).runtime_h(1),
                job(1).nodes(2).mem_gib(32).runtime_h(2)});
  const auto sched = make_scheduler(SchedulerKind::kEasy);

  s->enqueue(0);
  s->enqueue(1);
  s.run_pass(*sched);
  EXPECT_TRUE(s->was_started(0));
  EXPECT_TRUE(s->was_started(1));

  s.advance_h(1.0);  // audits with both jobs holding resources
  s->finish(0);
  s.advance_h(1.0);
  s->finish(1);
  // teardown audits the now-empty cluster
}

TEST(FakeContext, JobLookupOutsideTheEagerVectorDiesLoudly) {
  // FakeContext equates JobId with position in its materialized vector. An
  // id from outside that vector — e.g. one minted by a streaming run — must
  // fail the eager-only assert, not read garbage.
  FakeContext ctx(machine(4, 64.0), {job(0), job(1)});
  EXPECT_DEATH((void)ctx.job(2), "eager-only");
}

TEST(SimSession, AuditsPooledAllocationsOnAdvance) {
  // A job larger than local memory draws from the rack pool; the advance()
  // audit validates the pooled bookkeeping while the job runs.
  SimSession s(machine(4, 64.0, /*rack_pool_gib=*/64.0),
               {job(0).nodes(1).mem_gib(96).runtime_h(1)});
  s->force_run(0);
  const RunningJob* r = s->running_record(0);
  ASSERT_NE(r, nullptr);
  s.advance_h(0.5);
  s->finish(0);
}

}  // namespace
}  // namespace dmsched::testing
