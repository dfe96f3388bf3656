// The incremental-pass contract, end to end through the engine.
//
// Caching schedulers skip work a full pass would provably repeat, keyed on
// the context's availability timeline and its append-only queue view
// (sched/scheduler.hpp). Two checks pin that down:
//  - warm equals cold: on every paper-regime scenario, under every queue
//    order, a cached policy produces the same semantic event digest as the
//    same policy rebuilt from scratch for every pass, EASY does too on a
//    deep-backlog large-replay prefix, and mem-easy and conservative on the
//    paper machine;
//  - the queue view: at every pass, queued_jobs() is the queue comparator's
//    order and queued_jobs_after(token) names exactly the jobs that arrived
//    since the pass that took the token.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/system_config.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/factory.hpp"
#include "sched/queue_policy.hpp"
#include "testing/builders.hpp"
#include "workload/models.hpp"
#include "workload/scenarios.hpp"

namespace dmsched {
namespace {

const SchedulerKind kCachingKinds[] = {
    SchedulerKind::kEasy, SchedulerKind::kConservative,
    SchedulerKind::kMemAwareEasy, SchedulerKind::kAdaptive};

const QueueOrder kOrders[] = {QueueOrder::kFcfs, QueueOrder::kShortestFirst,
                              QueueOrder::kLargestFirst, QueueOrder::kWfp};

/// Builds a fresh policy for every pass, so no cache survives between
/// passes: each pass is the full recompute a warm fast path must equal.
class FreshEachPass final : public Scheduler {
 public:
  FreshEachPass(SchedulerKind kind, MemAwareOptions mem)
      : kind_(kind), mem_(mem) {}
  [[nodiscard]] const char* name() const override { return "fresh-each-pass"; }
  void schedule(SchedContext& ctx) override {
    make_scheduler(kind_, mem_)->schedule(ctx);
  }

 private:
  SchedulerKind kind_;
  MemAwareOptions mem_;
};

struct CellRun {
  std::uint64_t digest = 0;
  SchedulerStats stats{};
};

CellRun run_cell(const ExperimentConfig& cfg, const Trace& trace,
                 bool fresh) {
  std::unique_ptr<Scheduler> scheduler =
      fresh ? std::make_unique<FreshEachPass>(cfg.scheduler, cfg.mem_options)
            : make_scheduler(cfg.scheduler, cfg.mem_options);
  const SchedulerStats* stats = scheduler->stats();
  EagerTraceSource source(trace);
  SchedulingSimulation sim(cfg.cluster, source, std::move(scheduler),
                           cfg.engine);
  sim.run();
  return {sim.event_digest(), stats != nullptr ? *stats : SchedulerStats{}};
}

CellRun run_scenario_cell(const Scenario& scenario, SchedulerKind kind,
                          QueueOrder order, bool fresh) {
  ExperimentConfig cfg = scenario_experiment(scenario, kind);
  cfg.engine.queue_order = order;
  return run_cell(cfg, scenario.trace, fresh);
}

std::vector<std::string> paper_scenarios() {
  std::vector<std::string> names;
  for (const std::string& name : scenario_names()) {
    if (!scenario_info(name).infrastructure) names.push_back(name);
  }
  return names;
}

class WarmEqualsCold : public ::testing::TestWithParam<std::string> {};

TEST_P(WarmEqualsCold, CachedPolicyMatchesAFreshPolicyEveryPass) {
  const Scenario scenario = make_scenario(GetParam(), {.jobs = 250});
  std::uint64_t fast_passes = 0;
  for (const SchedulerKind kind : kCachingKinds) {
    for (const QueueOrder order : kOrders) {
      SCOPED_TRACE(std::string(to_string(kind)) + "/" + to_string(order));
      const CellRun warm = run_scenario_cell(scenario, kind, order, false);
      const CellRun cold = run_scenario_cell(scenario, kind, order, true);
      EXPECT_EQ(warm.digest, cold.digest);
      fast_passes += warm.stats.fast_passes;
    }
  }
  // The warm arm must actually have taken fast paths for the comparison
  // to mean anything.
  EXPECT_GT(fast_passes, 0U);
}

INSTANTIATE_TEST_SUITE_P(
    PaperScenarios, WarmEqualsCold, ::testing::ValuesIn(paper_scenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// A large-replay prefix above saturation backs the queue up to well over a
// hundred jobs (about 90 on average over the run), so EASY's cached shadow
// and spare-node state is reused across many passes over a long backlog:
// the regime the 250-job paper cells above never reach.
TEST(DeepBacklog, EasyWarmEqualsColdOnLargeReplayAtLoad15) {
  const Scenario scenario =
      make_scenario("large-replay", {.jobs = 1000, .load = 1.5});
  const CellRun warm = run_scenario_cell(scenario, SchedulerKind::kEasy,
                                         QueueOrder::kFcfs, false);
  const CellRun cold = run_scenario_cell(scenario, SchedulerKind::kEasy,
                                         QueueOrder::kFcfs, true);
  EXPECT_EQ(warm.digest, cold.digest);
  EXPECT_GT(warm.stats.fast_passes, 0U);
}

// The paper's 1024-node machine at load 1.1 backs mem-easy's queue up, so
// its warm passes skip long prefixes of judged candidates and judge only
// the arrivals, with one reservation (the default depth).
TEST(DeepBacklog, MemEasyWarmEqualsColdOnPaperMachine) {
  ExperimentConfig cfg;
  cfg.cluster = custom_config(1024, 64, gib(std::int64_t{128}),
                              gib(std::int64_t{2048}),
                              gib(std::int64_t{4096}));
  cfg.scheduler = SchedulerKind::kMemAwareEasy;
  const Trace trace = make_model_trace(WorkloadModel::kMixed, 1000, 29, 1024,
                                       gib(std::int64_t{256}), 1.1);
  const CellRun warm = run_cell(cfg, trace, false);
  const CellRun cold = run_cell(cfg, trace, true);
  EXPECT_EQ(warm.digest, cold.digest);
  EXPECT_GT(warm.stats.fast_passes, 0U);
}

// The same machine and load under conservative, whose full passes keep the
// last pass's reservations that no completion or own start could move. A
// kept reservation counts as examined but not as a plan, so a warm run
// that keeps any examines more candidates than it plans; under `sjf` every
// pass is full (the queue re-ranks), and reservations are kept while the
// ranked order matches the last pass's.
TEST(DeepBacklog, ConservativeWarmEqualsColdOnPaperMachine) {
  ExperimentConfig cfg;
  cfg.cluster = custom_config(1024, 64, gib(std::int64_t{128}),
                              gib(std::int64_t{2048}),
                              gib(std::int64_t{4096}));
  cfg.scheduler = SchedulerKind::kConservative;
  const Trace trace = make_model_trace(WorkloadModel::kMixed, 1000, 29, 1024,
                                       gib(std::int64_t{256}), 1.1);
  for (const QueueOrder order :
       {QueueOrder::kFcfs, QueueOrder::kShortestFirst}) {
    SCOPED_TRACE(to_string(order));
    cfg.engine.queue_order = order;
    const CellRun warm = run_cell(cfg, trace, false);
    const CellRun cold = run_cell(cfg, trace, true);
    EXPECT_EQ(warm.digest, cold.digest);
    EXPECT_LT(warm.stats.plans_attempted, warm.stats.jobs_examined);
  }
}

// The edge of mem-easy's plan-free what-if, in a pass with one
// reservation: the head (job 1, all 16 nodes) reserves 4 h, when job 0
// ends. Job 2 ends exactly then, undilated (now + walltime == the head's
// start), so the plan-free test must not judge it and the fast accept
// starts it. Job 3 runs one microsecond longer and would leave the head 4
// nodes short at 4 h, so the pass passes it over; it starts after the head.
TEST(MemEasyWhatIfEdge, HoldEndingAtTheHeadStartStartsOneMicrosecondMoreWaits) {
  const Trace trace = testing::trace_of(
      {testing::job(0).nodes(8).runtime_h(4.0),
       testing::job(1).nodes(16).runtime_h(1.0),
       testing::job(2).nodes(4).runtime_h(4.0),
       testing::job(3).nodes(4).runtime_h(1.0).walltime(hours(4) +
                                                        SimTime{1})});
  ExperimentConfig cfg;
  cfg.cluster = testing::tiny_cluster();
  cfg.scheduler = SchedulerKind::kMemAwareEasy;
  EagerTraceSource source(trace);
  SchedulingSimulation sim(cfg.cluster, source, make_scheduler(cfg.scheduler),
                           cfg.engine);
  const RunMetrics m = sim.run();
  ASSERT_EQ(m.jobs.size(), 4U);
  EXPECT_EQ(m.jobs[0].start, SimTime{0});
  EXPECT_EQ(m.jobs[1].start, hours(4));
  EXPECT_EQ(m.jobs[2].start, SimTime{0});
  EXPECT_EQ(m.jobs[2].dilation, 1.0);
  EXPECT_EQ(m.jobs[3].start, hours(5));
  EXPECT_EQ(sim.event_digest(), run_cell(cfg, trace, true).digest);
}

// --- queue view --------------------------------------------------------------

/// Checks the context's queue view at the start of every pass, then hands
/// the pass to a cached policy.
class QueueViewProbe final : public Scheduler {
 public:
  QueueViewProbe(std::unique_ptr<Scheduler> inner, QueueOrder order)
      : inner_(std::move(inner)), order_(order) {}
  [[nodiscard]] const char* name() const override { return "queue-view"; }

  void schedule(SchedContext& ctx) override {
    ++passes;
    const std::vector<JobId> queue = ctx.queued_jobs();
    std::vector<JobId> sorted = queue;
    std::sort(sorted.begin(), sorted.end(), [&](JobId a, JobId b) {
      return queue_precedes(ctx.job(a), ctx.job(b), order_, ctx.now());
    });
    if (queue != sorted) ++order_mismatches;

    // Queued now but not at the end of the last pass: the arrivals since.
    // The engine appends in id order, so append order is ascending id.
    std::vector<JobId> arrived;
    for (const JobId id : queue) {
      if (left_queued_.count(id) == 0) arrived.push_back(id);
    }
    std::sort(arrived.begin(), arrived.end());
    if (ctx.queued_jobs_after(token_) != arrived) ++suffix_mismatches;
    if (arrived.size() > 1) ++multi_arrival_passes;
    if (ctx.queue_tail_epoch() < token_) ++token_regressions;

    inner_->schedule(ctx);
    token_ = ctx.queue_tail_epoch();
    const std::vector<JobId> left = ctx.queued_jobs();
    left_queued_ = std::set<JobId>(left.begin(), left.end());
  }

  std::size_t passes = 0;
  std::size_t order_mismatches = 0;
  std::size_t suffix_mismatches = 0;
  std::size_t token_regressions = 0;
  std::size_t multi_arrival_passes = 0;

 private:
  std::unique_ptr<Scheduler> inner_;
  QueueOrder order_;
  std::uint64_t token_ = 0;
  std::set<JobId> left_queued_;
};

/// Jobs arriving in bursts of eight with equal submit times, so FCFS order
/// rests on the id tie-break and passes see several arrivals at once.
Trace equal_submit_trace() {
  Rng rng(16);
  std::vector<Job> jobs;
  for (JobId id = 0; id < 240; ++id) {
    const double runtime_h = rng.uniform(0.2, 4.0);
    const auto nodes = static_cast<std::int32_t>(rng.uniform_int(1, 12));
    jobs.push_back(testing::job(id)
                       .at_h(0.5 * static_cast<double>(id / 8))
                       .nodes(nodes)
                       .mem_gib(rng.uniform(16.0, 120.0))
                       .runtime_h(runtime_h)
                       .walltime_h(runtime_h * rng.uniform(1.0, 2.0)));
  }
  return testing::trace_of(std::move(jobs), "equal-submits");
}

class QueueView : public ::testing::TestWithParam<QueueOrder> {};

TEST_P(QueueView, MatchesTheComparatorAndTheArrivalsAtEveryPass) {
  const Trace trace = equal_submit_trace();
  const ClusterConfig machine = custom_config(
      32, 8, gib(std::int64_t{64}), gib(std::int64_t{256}),
      gib(std::int64_t{512}));
  for (const std::size_t lookahead : {std::size_t{1}, std::size_t{0}}) {
    for (const SchedulerKind kind : kCachingKinds) {
      SCOPED_TRACE(std::string(to_string(kind)) +
                   " lookahead=" + std::to_string(lookahead));
      EngineOptions options;
      options.queue_order = GetParam();
      options.submit_lookahead = lookahead;
      auto probe =
          std::make_unique<QueueViewProbe>(make_scheduler(kind), GetParam());
      const QueueViewProbe& seen = *probe;
      EagerTraceSource source(trace);
      SchedulingSimulation sim(machine, source, std::move(probe), options);
      const RunMetrics m = sim.run();
      EXPECT_EQ(m.completed, trace.size());
      EXPECT_GT(seen.passes, 100U);
      EXPECT_GT(seen.multi_arrival_passes, 0U);
      EXPECT_EQ(seen.order_mismatches, 0U);
      EXPECT_EQ(seen.suffix_mismatches, 0U);
      EXPECT_EQ(seen.token_regressions, 0U);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, QueueView, ::testing::ValuesIn(kOrders),
    [](const ::testing::TestParamInfo<QueueOrder>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace dmsched
