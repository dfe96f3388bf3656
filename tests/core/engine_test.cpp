#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/input_error.hpp"
#include "core/factory.hpp"
#include "memory/placement.hpp"
#include "obs/recording_sink.hpp"
#include "sched/queue_policy.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::tiny_cluster;
using testing::trace_of;

RunMetrics run(const ClusterConfig& cfg, const Trace& trace,
               SchedulerKind kind = SchedulerKind::kFcfs,
               EngineOptions options = {}) {
  options.audit_cluster = true;
  EagerTraceSource source(trace);
  SchedulingSimulation sim(cfg, source, make_scheduler(kind), options);
  return sim.run();
}

TEST(Engine, SingleJobLifecycle) {
  const Trace t = trace_of({job(0).at_h(1.0).nodes(4).runtime_h(2.0)});
  const RunMetrics m = run(tiny_cluster(), t);
  ASSERT_EQ(m.jobs.size(), 1u);
  const JobOutcome& o = m.jobs[0];
  EXPECT_EQ(o.fate, JobFate::kCompleted);
  EXPECT_DOUBLE_EQ(o.start.hours(), 1.0);   // starts immediately
  EXPECT_DOUBLE_EQ(o.end.hours(), 3.0);
  EXPECT_DOUBLE_EQ(o.wait().seconds(), 0.0);
  EXPECT_DOUBLE_EQ(o.dilation, 1.0);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_DOUBLE_EQ(m.makespan.hours(), 3.0);
}

TEST(Engine, QueuedJobWaitsForNodes) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(16).runtime_h(2.0),
                            job(1).at_h(1.0).nodes(16).runtime_h(1.0)});
  const RunMetrics m = run(tiny_cluster(), t);
  EXPECT_DOUBLE_EQ(m.jobs[1].start.hours(), 2.0);
  EXPECT_DOUBLE_EQ(m.jobs[1].wait().hours(), 1.0);
}

TEST(Engine, DeficitJobDilates) {
  // mem 80 on 64-GiB nodes: 16/80 = 20% far; beta 0.3 -> dilation 1.06
  const Trace t = trace_of({job(0).nodes(2).mem_gib(80).runtime_h(1.0)});
  const RunMetrics m = run(tiny_cluster(gib(std::int64_t{64})), t);
  ASSERT_EQ(m.jobs.size(), 1u);
  EXPECT_NEAR(m.jobs[0].dilation, 1.06, 1e-9);
  EXPECT_NEAR(m.jobs[0].end.hours(), 1.06, 1e-6);
  EXPECT_EQ(m.jobs[0].far_rack, gib(std::int64_t{32}));
  EXPECT_TRUE(m.jobs[0].far_global.is_zero());
  EXPECT_DOUBLE_EQ(m.frac_jobs_far, 1.0);
}

TEST(Engine, UnrunnableJobRejected) {
  // no pools: a 100-GiB-per-node job cannot ever run
  const Trace t = trace_of({job(0).mem_gib(100), job(1).mem_gib(8)});
  const RunMetrics m = run(tiny_cluster(), t);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.jobs[0].fate, JobFate::kRejected);
  EXPECT_EQ(m.jobs[1].fate, JobFate::kCompleted);
}

TEST(Engine, SamePoolJobRunnableWithPool) {
  const Trace t = trace_of({job(0).mem_gib(100)});
  const RunMetrics m = run(tiny_cluster(gib(std::int64_t{64})), t);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(Engine, KillOnWalltimeTruncatesDilatedJob) {
  // runtime 1h == walltime; dilation 1.06 would overrun -> killed at 1 h
  EngineOptions options;
  options.kill_on_walltime = true;
  const Trace t = trace_of(
      {job(0).nodes(2).mem_gib(80).runtime_h(1.0).walltime_h(1.0)});
  const RunMetrics m =
      run(tiny_cluster(gib(std::int64_t{64})), t, SchedulerKind::kFcfs,
          options);
  EXPECT_EQ(m.killed, 1u);
  EXPECT_EQ(m.jobs[0].fate, JobFate::kKilled);
  EXPECT_DOUBLE_EQ(m.jobs[0].end.hours(), 1.0);
}

TEST(Engine, NoKillWithoutFlagEvenWhenOverrunning) {
  const Trace t = trace_of(
      {job(0).nodes(2).mem_gib(80).runtime_h(1.0).walltime_h(1.0)});
  const RunMetrics m = run(tiny_cluster(gib(std::int64_t{64})), t);
  EXPECT_EQ(m.killed, 0u);
  EXPECT_NEAR(m.jobs[0].end.hours(), 1.06, 1e-6);
}

TEST(Engine, UtilizationOfBackToBackFullMachine) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(16).runtime_h(2.0),
                            job(1).at_h(0.0).nodes(16).runtime_h(2.0)});
  const RunMetrics m = run(tiny_cluster(), t);
  EXPECT_DOUBLE_EQ(m.makespan.hours(), 4.0);
  EXPECT_NEAR(m.node_utilization, 1.0, 1e-9);
}

TEST(Engine, PoolUtilizationTracked) {
  const Trace t = trace_of({job(0).nodes(4).mem_gib(96).runtime_h(1.0)});
  // 4 racks × 64 GiB pool = 256 capacity; job draws 4 × 32 = 128 (50%)
  const RunMetrics m = run(tiny_cluster(gib(std::int64_t{64})), t);
  EXPECT_NEAR(m.rack_pool_peak, 0.5, 1e-9);
  EXPECT_NEAR(m.rack_pool_utilization, 0.5, 1e-9);  // busy the whole run
}

TEST(Engine, SeriesSamplingProducesSamples) {
  EngineOptions options;
  options.sample_interval = minutes(30);
  const Trace t = trace_of({job(0).nodes(8).runtime_h(2.0),
                            job(1).at_h(0.5).nodes(8).runtime_h(2.0)});
  const RunMetrics m =
      run(tiny_cluster(), t, SchedulerKind::kFcfs, options);
  ASSERT_GE(m.series.size(), 4u);
  // samples fire before the scheduling pass at the same instant: the t=0
  // sample sees an idle machine, the t=30min one sees job 0 only (job 1 is
  // submitted at that instant but not yet scheduled), t=60min sees both.
  EXPECT_EQ(m.series[0].busy_nodes, 0);
  EXPECT_EQ(m.series[1].busy_nodes, 8);
  EXPECT_EQ(m.series[2].busy_nodes, 16);
  bool saw_full = false;
  for (const auto& s : m.series) saw_full |= (s.busy_nodes == 16);
  EXPECT_TRUE(saw_full);
}

TEST(Engine, SampleAtABoundarySeesCompletionsButNotStarts) {
  // Job 0 fills the machine until 1 h; job 1 (8 nodes) waits for it and
  // starts at 1 h, in the pass after job 0's completion, then ends at 2 h.
  // The 1 h sample sits between the two: job 0 gone, job 1 still queued.
  // The 2 h boundary falls exactly on the last completion: its sample sees
  // the drained machine and ends the series.
  EngineOptions options;
  options.sample_interval = hours(1);
  const Trace t = trace_of({job(0).nodes(16).runtime_h(1.0),
                            job(1).nodes(8).runtime_h(1.0)});
  const RunMetrics m = run(tiny_cluster(), t, SchedulerKind::kFcfs, options);
  ASSERT_EQ(m.jobs[1].start.usec(), hours(1).usec());
  ASSERT_EQ(m.makespan.usec(), hours(2).usec());
  ASSERT_EQ(m.series.size(), 3u);
  const TimeSample& at0 = m.series[0];  // before the first pass
  EXPECT_EQ(at0.busy_nodes, 0);
  EXPECT_EQ(at0.queued_jobs, 2);
  const TimeSample& at1 = m.series[1];
  EXPECT_EQ(at1.time.usec(), hours(1).usec());
  EXPECT_EQ(at1.busy_nodes, 0);
  EXPECT_EQ(at1.queued_jobs, 1);
  EXPECT_EQ(at1.running_jobs, 0);
  const TimeSample& at2 = m.series[2];
  EXPECT_EQ(at2.time.usec(), hours(2).usec());
  EXPECT_EQ(at2.busy_nodes, 0);
  EXPECT_EQ(at2.queued_jobs, 0);
  EXPECT_EQ(at2.running_jobs, 0);
}

TEST(Engine, SamplingSchedulesNoEvents) {
  // The series is read off the transition stream: turning it on (with
  // windows) leaves the event count and the digest untouched.
  const Trace t = trace_of({job(0).nodes(8).runtime_h(2.0),
                            job(1).at_h(0.5).nodes(16).runtime_h(1.0),
                            job(2).at_h(0.7).nodes(4).runtime_h(0.25)});
  const auto events = [&](SimTime interval) {
    EngineOptions options;
    options.sample_interval = interval;
    options.checkpoint_interval = interval;
    EagerTraceSource source(t);
    SchedulingSimulation sim(tiny_cluster(), source,
                             make_scheduler(SchedulerKind::kEasy), options);
    const RunMetrics m = sim.run();
    EXPECT_EQ(m.series.empty(), interval == SimTime{});
    return std::pair{sim.events_processed(), sim.event_digest()};
  };
  EXPECT_EQ(events(minutes(10)), events(SimTime{}));
}

TEST(Engine, BoundedSlowdownComputation) {
  const Trace t = trace_of({job(0).at_h(0.0).nodes(16).runtime_h(1.0),
                            job(1).at_h(0.0).nodes(16).runtime_h(1.0)});
  const RunMetrics m = run(tiny_cluster(), t);
  // second job: wait 1 h, run 1 h -> bsld 2
  EXPECT_DOUBLE_EQ(m.jobs[1].bounded_slowdown(), 2.0);
  EXPECT_DOUBLE_EQ(m.mean_bsld, 1.5);
}

TEST(Engine, EmptyTraceProducesEmptyMetrics) {
  const RunMetrics m = run(tiny_cluster(), Trace{});
  EXPECT_EQ(m.jobs.size(), 0u);
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(m.makespan, SimTime{});
}

TEST(Engine, RunIsSingleShot) {
  const Trace t = trace_of({job(0)});
  EagerTraceSource source(t);
  SchedulingSimulation sim(tiny_cluster(), source,
                           make_scheduler(SchedulerKind::kFcfs), {});
  (void)sim.run();
  EXPECT_DEATH((void)sim.run(), "single-shot");
}

TEST(Engine, TakeFromAllocationGroupsByRack) {
  const ClusterConfig cfg = tiny_cluster(gib(std::int64_t{100}),
                                         gib(std::int64_t{50}));
  Allocation a;
  a.job = 1;
  a.nodes = {0, 1, 4};  // racks 0 and 1
  a.local_per_node = gib(std::int64_t{64});
  a.far_per_node = gib(std::int64_t{10});
  a.draws = {{0, gib(std::int64_t{20})},
             {1, gib(std::int64_t{5})},
             {kGlobalPoolRack, gib(std::int64_t{5})}};
  const TakePlan take = take_from(a, cfg);
  EXPECT_EQ(take.node_total(), 3);
  ASSERT_EQ(take.takes.size(), 2u);
  EXPECT_EQ(take.takes[0].rack, 0);
  EXPECT_EQ(take.takes[0].nodes, 2);
  EXPECT_EQ(take.takes[0].rack_pool_bytes, gib(std::int64_t{20}));
  EXPECT_EQ(take.takes[1].rack, 1);
  EXPECT_EQ(take.takes[1].nodes, 1);
  EXPECT_EQ(take.rack_pool_total(), gib(std::int64_t{25}));
  EXPECT_EQ(take.global_total(), gib(std::int64_t{5}));
}

TEST(Engine, WalltimeBoundGovernsExpectedEndNotActual) {
  // job runs 1 h but requested 3 h: a second full-width job still starts at
  // the ACTUAL completion (1 h), not the walltime bound.
  const Trace t = trace_of(
      {job(0).at_h(0.0).nodes(16).runtime_h(1.0).walltime_h(3.0),
       job(1).at_h(0.0).nodes(16).runtime_h(1.0).walltime_h(3.0)});
  const RunMetrics m = run(tiny_cluster(), t, SchedulerKind::kEasy);
  EXPECT_DOUBLE_EQ(m.jobs[1].start.hours(), 1.0);
}

// --- the live-job ring ---------------------------------------------------

struct RingRun {
  RunMetrics metrics;
  std::uint64_t digest = 0;
};

RingRun run_at(const Trace& trace, SchedulerKind kind,
               std::size_t lookahead) {
  EngineOptions options;
  options.audit_cluster = true;
  options.submit_lookahead = lookahead;
  EagerTraceSource source(trace);
  SchedulingSimulation sim(tiny_cluster(), source, make_scheduler(kind),
                           options);
  RingRun r;
  r.metrics = sim.run();
  r.digest = sim.event_digest();
  return r;
}

TEST(EngineRing, GrowingWhileWrappedMatchesLookaheadZero) {
  // Ten short jobs retire, moving the ring's head to slot 10. Job 10 then
  // runs for 40 h and holds the front, so the later short jobs finish but
  // cannot retire: at look-ahead 8 the 16-slot ring fills as ids 10..25
  // (slots 10..15, then 0..9) and doubles while wrapped, then doubles
  // again. Look-ahead 0 sizes the ring from the hint and never grows.
  std::vector<Job> jobs;
  for (JobId i = 0; i < 60; ++i) {
    const bool long_job = i == 10;
    jobs.push_back(job(i)
                       .at_h(0.3 * i)
                       .nodes(long_job ? 4 : 7)
                       .runtime_h(long_job ? 40.0 : 0.5)
                       .walltime_h(long_job ? 40.0 : 1.0));
  }
  const Trace t = trace_of(std::move(jobs));
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    SCOPED_TRACE(to_string(kind));
    const RingRun full = run_at(t, kind, 0);
    const RingRun ring = run_at(t, kind, 8);
    ASSERT_EQ(full.metrics.jobs.size(), t.size());
    ASSERT_EQ(ring.metrics.jobs.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      const JobOutcome& a = full.metrics.jobs[i];
      const JobOutcome& b = ring.metrics.jobs[i];
      EXPECT_EQ(a.id, i);
      EXPECT_EQ(b.id, i);
      EXPECT_EQ(a.fate, b.fate);
      EXPECT_EQ(a.submit, b.submit);
      EXPECT_EQ(a.start, b.start);
      EXPECT_EQ(a.end, b.end);
      EXPECT_EQ(a.dilation, b.dilation);
      EXPECT_EQ(a.nodes, b.nodes);
      EXPECT_EQ(a.runtime, b.runtime);
    }
    EXPECT_EQ(full.metrics.makespan, ring.metrics.makespan);
    EXPECT_EQ(full.metrics.mean_wait_hours, ring.metrics.mean_wait_hours);
    EXPECT_EQ(full.digest, ring.digest);
    // Non-vacuous: the short jobs contend for nodes, so some wait.
    EXPECT_GT(full.metrics.max_wait_hours, 0.0);
  }
}

/// FCFS that, once the clock reaches `at`, looks up `probe`.
class ProbeScheduler final : public Scheduler {
 public:
  ProbeScheduler(JobId probe, SimTime at) : probe_(probe), at_(at) {}
  [[nodiscard]] const char* name() const override { return "probe"; }
  void schedule(SchedContext& ctx) override {
    inner_->schedule(ctx);
    if (ctx.now() >= at_) (void)ctx.job(probe_);
  }

 private:
  std::unique_ptr<Scheduler> inner_ = make_scheduler(SchedulerKind::kFcfs);
  JobId probe_;
  SimTime at_;
};

TEST(EngineRingDeathTest, RetiredJobIsNotALiveJob) {
  // One short job an hour: each retires before the next submits, so the
  // 16-slot ring never grows and id k sits in slot k mod 16. At 18 h job 2
  // is long retired and its slot holds job 18 — the lookup must still die.
  std::vector<Job> jobs;
  for (JobId i = 0; i < 20; ++i) {
    jobs.push_back(job(i).at_h(i).nodes(2).runtime_h(0.5));
  }
  const Trace t = trace_of(std::move(jobs));
  EXPECT_DEATH(
      {
        EngineOptions options;
        options.submit_lookahead = 8;
        EagerTraceSource source(t);
        SchedulingSimulation sim(
            tiny_cluster(), source,
            std::make_unique<ProbeScheduler>(2, hours(18)), options);
        (void)sim.run();
      },
      "not a live job");
}

// --- the waiting queue -----------------------------------------------------

/// EASY, recording after every pass the time, queued_jobs(), and whether
/// queued_jobs_after(e) is the queue's ids >= e in id order for every
/// epoch e up to the tail epoch.
class QueueRecorder final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "queue-recorder"; }
  void schedule(SchedContext& ctx) override {
    inner_->schedule(ctx);
    times.push_back(ctx.now());
    queues.push_back(ctx.queued_jobs());
    std::vector<JobId> ids = queues.back();
    std::sort(ids.begin(), ids.end());
    for (std::uint64_t e = 0; e <= ctx.queue_tail_epoch(); ++e) {
      std::vector<JobId> suffix;
      for (const JobId id : ids) {
        if (id >= e) suffix.push_back(id);
      }
      if (ctx.queued_jobs_after(e) != suffix) ++suffix_mismatches;
    }
  }

  std::vector<SimTime> times;
  std::vector<std::vector<JobId>> queues;
  int suffix_mismatches = 0;

 private:
  std::unique_ptr<Scheduler> inner_ = make_scheduler(SchedulerKind::kEasy);
};

// Job 0 holds 12 of the 16 nodes until 4 h. At 0.5 h the head (job 1, all
// 16 nodes) waits, and job 3, in the middle of the queue, backfills; jobs 2
// and 4 (8 nodes each) wait. At 4 h the head starts, and at 5 h the rest.
// Under sjf the queue ranks job 4 (2 h) before job 2 (3 h).
TEST(EngineQueue, BackfillFromTheMiddleThenTheHead) {
  const Trace t = trace_of({job(0).nodes(12).runtime_h(4.0),
                            job(1).at_h(0.5).nodes(16).runtime_h(1.0),
                            job(2).at_h(0.5).nodes(8).runtime_h(3.0),
                            job(3).at_h(0.5).nodes(4).runtime_h(1.0),
                            job(4).at_h(0.5).nodes(8).runtime_h(2.0)});
  using Queue = std::vector<JobId>;
  const std::vector<SimTime> times = {hours(0), seconds(1800.0), hours(1) +
                                      seconds(1800.0), hours(4), hours(5),
                                      hours(7), hours(8)};
  for (const QueueOrder order :
       {QueueOrder::kFcfs, QueueOrder::kShortestFirst}) {
    SCOPED_TRACE(to_string(order));
    auto recorder = std::make_unique<QueueRecorder>();
    const QueueRecorder& seen = *recorder;
    EngineOptions options;
    options.queue_order = order;
    EagerTraceSource source(t);
    SchedulingSimulation sim(tiny_cluster(), source, std::move(recorder),
                             options);
    (void)sim.run();
    const Queue waiting =
        order == QueueOrder::kFcfs ? Queue{1, 2, 4} : Queue{1, 4, 2};
    const Queue after_head =
        order == QueueOrder::kFcfs ? Queue{2, 4} : Queue{4, 2};
    EXPECT_EQ(seen.times, times);
    EXPECT_EQ(seen.queues, (std::vector<Queue>{{}, waiting, waiting,
                                               after_head, {}, {}, {}}));
    EXPECT_EQ(seen.suffix_mismatches, 0);
  }
}

/// Starts the queue's first job twice in one pass.
class DoubleStart final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "double-start"; }
  void schedule(SchedContext& ctx) override {
    const std::vector<JobId> queue = ctx.queued_jobs();
    if (queue.empty()) return;
    const auto alloc =
        plan_start(ctx.cluster(), ctx.job(queue.front()), ctx.placement());
    if (!alloc) return;
    ctx.start_job(queue.front(), *alloc);
    ctx.start_job(queue.front(), *alloc);
  }
};

TEST(EngineQueueDeathTest, StartingAJobThatIsNotQueuedAborts) {
  const Trace t = trace_of({job(0).nodes(2).runtime_h(1.0)});
  EXPECT_DEATH(
      {
        EagerTraceSource source(t);
        SchedulingSimulation sim(tiny_cluster(), source,
                                 std::make_unique<DoubleStart>(),
                                 EngineOptions{});
        (void)sim.run();
      },
      "job is not in the queue");
}

// --- the migration scan order ----------------------------------------------

/// Starts the queue back to front, each job on the next free node with its
/// whole deficit drawn from that node's rack pool.
class ReverseStarter final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "reverse"; }
  void schedule(SchedContext& ctx) override {
    const std::vector<JobId> queue = ctx.queued_jobs();
    const ClusterConfig& config = ctx.cluster().config();
    for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
      const Job& j = ctx.job(*it);
      Allocation a;
      a.job = *it;
      a.nodes = {next_node_};
      a.local_per_node = config.local_mem_per_node;
      a.far_per_node = j.mem_per_node - config.local_mem_per_node;
      a.draws = {{config.rack_of(next_node_), a.far_per_node}};
      ctx.start_job(*it, a);
      ++next_node_;
    }
  }

 private:
  NodeId next_node_ = 0;
};

// Jobs 0 and 1 each draw 45 GiB from rack 0's 100 GiB pool: 90% used, above
// the 0.85 demotion threshold, and demoting either one relieves it. Job 1
// starts first, and job 0 releases first (shorter walltime), so start order
// (1, 0) differs from both id order and release order (0, 1). The scan walks
// the running set in start order, so job 1 demotes and job 0 stays put.
// (Once job 0 ends, job 1 promotes back up to the 1% band.)
TEST(EngineMigration, ScanWalksTheRunningSetInStartOrder) {
  const Trace t = trace_of({job(0).nodes(1).mem_gib(109).runtime_h(2.0),
                            job(1).nodes(1).mem_gib(109).runtime_h(3.0)});
  obs::RecordingSink sink;
  EngineOptions options;
  options.audit_cluster = true;
  options.sink = &sink;
  options.migration.check_interval = minutes(10);
  options.migration.promote_headroom = 0.84;  // band 1%: none at 45% used
  EagerTraceSource source(t);
  SchedulingSimulation sim(
      tiny_cluster(gib(std::int64_t{100}), gib(std::int64_t{400})), source,
      std::make_unique<ReverseStarter>(), options);
  const RunMetrics m = sim.run();

  ASSERT_EQ(sink.started.size(), 2u);
  EXPECT_EQ(sink.started[0].job, 1u);
  EXPECT_EQ(sink.started[1].job, 0u);
  ASSERT_FALSE(sink.migrated.empty());
  EXPECT_TRUE(sink.migrated[0].demote);
  EXPECT_EQ(sink.migrated[0].at, minutes(10));
  for (const obs::JobMigrated& e : sink.migrated) EXPECT_EQ(e.job, 1u);
  EXPECT_EQ(m.demotions, 1u);
  EXPECT_EQ(m.jobs[0].far_rack, gib(std::int64_t{45}));
  EXPECT_TRUE(m.jobs[0].far_global.is_zero());
  EXPECT_GT(m.jobs[1].far_global, gib(std::int64_t{40}));
}

// --- invalid pulled jobs ---------------------------------------------------

/// Yields its jobs verbatim, without Trace::make's validation.
class ListSource final : public TraceSource {
 public:
  explicit ListSource(std::vector<Job> jobs) : jobs_(std::move(jobs)) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  std::optional<Job> next() override {
    if (next_ >= jobs_.size()) return std::nullopt;
    return jobs_[next_++];
  }

 private:
  std::vector<Job> jobs_;
  std::string name_ = "list";
  std::size_t next_ = 0;
};

/// Run two valid jobs followed by `bad` (pull ordinal 2). Look-ahead 0
/// pulls `bad` before the first event; look-ahead 1 pulls it mid-run, from
/// job 1's submission.
void run_after_two(const Job& bad, std::size_t lookahead) {
  ListSource source({job(0).at_h(0.0), job(1).at_h(1.0), bad});
  EngineOptions options;
  options.submit_lookahead = lookahead;
  SchedulingSimulation sim(tiny_cluster(), source,
                           make_scheduler(SchedulerKind::kFcfs), options);
  (void)sim.run();
}

/// The diagnostic run_after_two throws.
std::string rejection(const Job& bad, std::size_t lookahead) {
  try {
    run_after_two(bad, lookahead);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no exception";
}

Job third_job() { return job(2).at_h(2.0).runtime_h(1.0); }

void expect_rejection(const Job& bad, const std::string& message) {
  for (const std::size_t lookahead : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("lookahead " + std::to_string(lookahead));
    EXPECT_EQ(rejection(bad, lookahead), message);
  }
}

TEST(EngineInput, ZeroNodesThrows) {
  Job bad = third_job();
  bad.nodes = 0;
  expect_rejection(bad, "pulled job 2: nodes = 0, must be > 0");
}

TEST(EngineInput, ZeroRuntimeThrows) {
  Job bad = third_job();
  bad.runtime = SimTime{0};
  expect_rejection(bad, "pulled job 2: runtime = 0 us, must be > 0");
}

TEST(EngineInput, WalltimeBelowRuntimeThrows) {
  Job bad = third_job();
  bad.walltime = minutes(30);
  expect_rejection(bad,
                   "pulled job 2: walltime = 1800000000 us, must be >= "
                   "runtime (3600000000 us)");
}

TEST(EngineInput, NegativeMemoryThrows) {
  Job bad = third_job();
  bad.mem_per_node = Bytes{-1};
  expect_rejection(bad, "pulled job 2: mem_per_node = -1 B, must be >= 0");
}

TEST(EngineInput, NegativeGpusThrows) {
  Job bad = third_job();
  bad.gpus_per_node = -1;
  expect_rejection(bad, "pulled job 2: gpus_per_node = -1, must be >= 0");
}

TEST(EngineInput, NegativeBurstBufferThrows) {
  Job bad = third_job();
  bad.bb_bytes = Bytes{-1};
  expect_rejection(bad, "pulled job 2: bb_bytes = -1 B, must be >= 0");
}

TEST(EngineInput, UnsortedSubmitThrows) {
  Job bad = third_job();
  bad.submit = minutes(30);
  expect_rejection(bad,
                   "pulled job 2: submit = 1800000000 us, must be >= the "
                   "previous job's submit (3600000000 us)");
}

TEST(EngineInput, NegativeFirstSubmitThrows) {
  // The first pull has no predecessor to order against, and the clock
  // starts at 0: a source that yields a negative submit is rejected at the
  // boundary instead of tripping schedule_at's clock assertion.
  for (const std::size_t lookahead : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("lookahead " + std::to_string(lookahead));
    Job bad = job(0).runtime_h(1.0);
    bad.submit = usec(-1'000'000);
    ListSource source({bad});
    EngineOptions options;
    options.submit_lookahead = lookahead;
    SchedulingSimulation sim(tiny_cluster(), source,
                             make_scheduler(SchedulerKind::kFcfs), options);
    try {
      (void)sim.run();
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "pulled job 0: submit = -1000000 us, must be >= 0");
    }
  }
}

// --- the one job boundary --------------------------------------------------

/// One bad job per field validate(const Job&) checks, each otherwise valid.
std::vector<std::pair<std::string, Job>> bad_jobs() {
  const auto with = [](auto edit) {
    Job j = third_job();
    edit(j);
    return j;
  };
  return {
      {"nodes", with([](Job& j) { j.nodes = 0; })},
      {"runtime", with([](Job& j) { j.runtime = SimTime{0}; })},
      {"walltime", with([](Job& j) { j.walltime = minutes(30); })},
      {"mem_per_node", with([](Job& j) { j.mem_per_node = Bytes{-1}; })},
      {"gpus_per_node", with([](Job& j) { j.gpus_per_node = -1; })},
      {"bb_bytes", with([](Job& j) { j.bb_bytes = Bytes{-1}; })},
  };
}

TEST(JobBoundary, TraceAndPullRejectEachFieldWithTheSameInputError) {
  for (const auto& [field, bad] : bad_jobs()) {
    SCOPED_TRACE(field);
    try {
      (void)Trace::make({bad}, "bad");
      ADD_FAILURE() << "Trace::make accepted the job";
    } catch (const InputError& e) {
      EXPECT_EQ(e.field(), field) << e.what();
    }
    for (const std::size_t lookahead : {std::size_t{0}, std::size_t{1}}) {
      SCOPED_TRACE("lookahead " + std::to_string(lookahead));
      try {
        run_after_two(bad, lookahead);
        ADD_FAILURE() << "the pull accepted the job";
      } catch (const InputError& e) {
        EXPECT_EQ(e.field(), field) << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace dmsched
