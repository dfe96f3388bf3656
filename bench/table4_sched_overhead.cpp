// Table IV — scheduler decision overhead (google-benchmark).
//
// Two views:
//  1. whole-trace simulation throughput per policy (events/sec, jobs/sec) —
//     shows the simulator itself is not the bottleneck of any experiment;
//  2. single scheduling-pass latency at a controlled queue depth — the
//     figure a production RJMS integration would care about (passes run on
//     every submission/completion, so microseconds matter at scale).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "sched/profile.hpp"

namespace {

using namespace dmsched;
using namespace dmsched::bench;

// ---------------------------------------------------------------------------
// View 1: end-to-end simulation throughput.
// ---------------------------------------------------------------------------
void BM_FullSimulation(benchmark::State& state) {
  const auto kind = static_cast<SchedulerKind>(state.range(0));
  const auto jobs = static_cast<std::size_t>(state.range(1));
  const Trace trace = eval_trace(WorkloadModel::kMixed, jobs);
  const ExperimentConfig config = eval_config(
      disaggregated_config(128, 2048), kind, WorkloadModel::kMixed);
  std::size_t completed = 0;
  for (auto _ : state) {
    const RunMetrics m = run_experiment(config, trace);
    completed = m.completed;
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
  state.SetLabel(std::string(to_string(kind)) + ", " +
                 std::to_string(completed) + " completed");
}

// ---------------------------------------------------------------------------
// View 2: one scheduling pass at a controlled queue depth.
// ---------------------------------------------------------------------------

/// Minimal SchedContext over a half-busy machine with `depth` queued jobs,
/// every one wider than the free machine so no pass can start anything.
/// start_job is a no-op counter, so one pass can be timed repeatedly
/// without the machine moving between passes.
///
/// Like the engine, the context exposes an AvailabilityTimeline and a
/// stable queue (the push-based invalidation contract) — the stuck queue is
/// exactly the steady state the schedulers' warm fast paths are built for.
class PassContext final : public SchedContext {
 public:
  PassContext(const ClusterConfig& config, std::size_t depth)
      : config_(config), cluster_(config), timeline_(config_) {
    Rng rng(99);
    // Fill half the machine with running jobs of varied shapes.
    JobId next_id = 0;
    while (cluster_.free_nodes_total() > config_.total_nodes / 2) {
      Job j;
      j.id = next_id++;
      j.nodes = static_cast<std::int32_t>(rng.uniform_int(1, 32));
      j.mem_per_node = gib(rng.uniform(8.0, 200.0));
      j.runtime = j.walltime = seconds(rng.uniform(600.0, 6 * 3600.0));
      auto alloc = plan_start(cluster_, j, placement_);
      if (!alloc) break;
      cluster_.commit(*alloc);
      jobs_.push_back(j);
      timeline_.on_start(j.id, now_ + j.walltime, take_from(*alloc, config_));
    }
    // Queue `depth` more jobs, every one wider than the free half so the
    // queue is provably stuck and a timed pass never starts anything. That
    // is not just convenient for repeatability — it is required: start_job
    // here never commits to the ledger, and schedulers price the holds of
    // started jobs off the real cluster, so a context that "starts" without
    // committing would double-book nodes. Mirror the engine's admission
    // rule: only jobs that fit an empty machine may be queued (schedulers
    // rely on that contract).
    const std::int64_t min_nodes = cluster_.free_nodes_total() + 1;
    const std::int64_t max_nodes = config_.total_nodes;
    while (queue_.size() < depth) {
      Job j;
      j.id = next_id;
      j.nodes = static_cast<std::int32_t>(
          rng.uniform_int(min_nodes, max_nodes));
      j.mem_per_node = gib(rng.uniform(8.0, 300.0));
      j.runtime = j.walltime = seconds(rng.uniform(600.0, 6 * 3600.0));
      if (!feasible_on_empty(config_, j, placement_)) continue;
      ++next_id;
      jobs_.push_back(j);
      queue_.push_back(j.id);
    }
  }

  [[nodiscard]] SimTime now() const override { return now_; }
  [[nodiscard]] const Cluster& cluster() const override { return cluster_; }
  [[nodiscard]] const Job& job(JobId id) const override {
    return jobs_[id];
  }
  [[nodiscard]] std::vector<JobId> queued_jobs() const override {
    return queue_;
  }
  [[nodiscard]] PlacementPolicy placement() const override {
    return placement_;
  }
  [[nodiscard]] const SlowdownModel& slowdown() const override {
    return slowdown_;
  }
  [[nodiscard]] const Topology& topology() const override {
    return topology_;
  }
  void start_job(JobId, const Allocation&) override { ++starts_; }

  [[nodiscard]] const AvailabilityTimeline* timeline() const override {
    return &timeline_;
  }
  [[nodiscard]] bool queue_order_stable() const override { return true; }
  [[nodiscard]] std::uint64_t queue_tail_epoch() const override {
    return queue_.size();
  }
  [[nodiscard]] std::vector<JobId> queued_jobs_after(
      std::uint64_t epoch) const override {
    return {queue_.begin() + static_cast<std::ptrdiff_t>(epoch),
            queue_.end()};
  }

  [[nodiscard]] std::size_t starts() const { return starts_; }

 private:
  ClusterConfig config_;
  Cluster cluster_;
  Topology topology_{config_};
  AvailabilityTimeline timeline_;
  SimTime now_{};
  PlacementPolicy placement_{};
  SlowdownModel slowdown_{};
  std::vector<Job> jobs_;
  std::vector<JobId> queue_;
  std::size_t starts_ = 0;
};

/// A full pass: the scheduler is created afresh each pass, so no warm cache
/// from an earlier pass can shortcut it.
void BM_SchedulingPass(benchmark::State& state) {
  const auto kind = static_cast<SchedulerKind>(state.range(0));
  const auto depth = static_cast<std::size_t>(state.range(1));
  PassContext ctx(disaggregated_config(128, 2048), depth);
  for (auto _ : state) {
    make_scheduler(kind)->schedule(ctx);
    benchmark::DoNotOptimize(ctx.starts());
  }
  state.SetLabel(strformat("%s, queue=%zu", to_string(kind), depth));
}

/// The pass cost when nothing has moved since the last one: a stuck queue
/// on a context that exposes the availability timeline. cold re-creates the
/// scheduler each pass (a from-scratch recompute, the pre-incremental
/// cost); warm reuses it, so every measured pass rides the version-check
/// fast path. The gap is what push-based invalidation buys the engine on
/// the (overwhelmingly common) passes where the system state is unchanged.
void BM_SchedulingPassWarm(benchmark::State& state) {
  const auto kind = static_cast<SchedulerKind>(state.range(0));
  const auto depth = static_cast<std::size_t>(state.range(1));
  const bool warm = state.range(2) != 0;
  PassContext ctx(disaggregated_config(128, 2048), depth);
  auto scheduler = make_scheduler(kind);
  scheduler->schedule(ctx);  // prime the caches
  for (auto _ : state) {
    if (!warm) scheduler = make_scheduler(kind);
    scheduler->schedule(ctx);
    benchmark::DoNotOptimize(ctx.starts());
  }
  state.SetLabel(strformat("%s, queue=%zu, %s", to_string(kind), depth,
                           warm ? "warm" : "cold"));
}

void register_benchmarks() {
  // Short minimum times: each measurement is a full deterministic run (or
  // pass), so a handful of iterations already gives stable numbers.
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    benchmark::RegisterBenchmark("Table IV.1/full_simulation",
                                 BM_FullSimulation)
        ->Args({static_cast<std::int64_t>(kind), 2000})
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.2);
  }
  // Full passes at depths 64 and 256 are Table IV.3's cold arm.
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    benchmark::RegisterBenchmark("Table IV.2/scheduling_pass",
                                 BM_SchedulingPass)
        ->Args({static_cast<std::int64_t>(kind), 16})
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.1);
  }
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    for (const std::int64_t depth : {64, 256}) {
      for (const std::int64_t warm : {0, 1}) {
        benchmark::RegisterBenchmark("Table IV.3/scheduling_pass_steady",
                                     BM_SchedulingPassWarm)
            ->Args({static_cast<std::int64_t>(kind), depth, warm})
            ->Unit(benchmark::kMicrosecond)
            ->MinTime(0.1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
