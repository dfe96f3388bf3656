// The scheduler interface every policy implements.
//
// A scheduler is a pure decision procedure: given the queue, the running
// set, and the machine, it starts zero or more queued jobs by calling
// `start_job`. All bookkeeping (events, metrics, ledgers) lives in the
// simulation engine behind SchedContext, so policies stay small and testable
// against hand-built scenarios.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "memory/placement.hpp"
#include "memory/slowdown.hpp"
#include "migration/migration.hpp"
#include "topology/topology.hpp"
#include "workload/job.hpp"

namespace dmsched {

class AvailabilityTimeline;

/// Planning view of a running job: one entry of the availability timeline.
struct RunningJob {
  JobId id = kInvalidJobId;
  /// Upper bound on when it releases resources: start + walltime × the
  /// dilation of its actual allocation. (Jobs usually finish earlier —
  /// walltimes are overestimates — which backfilling exploits implicitly.)
  SimTime expected_end{};
  /// Counted resources it holds (for reservation profiles).
  TakePlan take;
};

/// What the engine exposes to a scheduling pass.
class SchedContext {
 public:
  virtual ~SchedContext() = default;

  [[nodiscard]] virtual SimTime now() const = 0;
  [[nodiscard]] virtual const Cluster& cluster() const = 0;
  [[nodiscard]] virtual const Job& job(JobId id) const = 0;
  /// Waiting jobs, head first, in queue-policy order.
  [[nodiscard]] virtual std::vector<JobId> queued_jobs() const = 0;
  /// Running jobs with planning bounds, in release order (ties in start
  /// order): a copy of `timeline()->entries()`, the one record of the
  /// running set. No policy calls it; policies read the timeline in place.
  /// It stays virtual only because perfbench's timing wrapper overrides it.
  [[nodiscard]] virtual std::vector<RunningJob> running_jobs() const;
  [[nodiscard]] virtual PlacementPolicy placement() const = 0;
  [[nodiscard]] virtual const SlowdownModel& slowdown() const = 0;
  /// The machine's rack-scale memory model (tier capacities, headroom).
  [[nodiscard]] virtual const Topology& topology() const = 0;
  /// The engine's live-migration policy. Policies may consult it to expect
  /// re-priced completions (a RunningJob's expected_end can move when the
  /// engine re-tiers its bytes). The default is the disabled sentinel, so
  /// hand-built contexts model the static world.
  [[nodiscard]] virtual MigrationPolicy migration() const { return {}; }

  // --- incremental-pass contract (push-based invalidation) ------------------
  // Every context exposes the availability timeline it maintains plus an
  // append-only view of the queue; there is no timeline-less mode. Schedulers
  // use these to skip work that a full pass would provably repeat: an
  // unchanged timeline version means no resources moved since the cached
  // pass, and `queued_jobs_after` names the only candidates a previously
  // converged pass has not yet judged.

  /// The persistent release timeline, never null. It must track every start
  /// and finish the context's cluster sees.
  [[nodiscard]] virtual const AvailabilityTimeline* timeline() const = 0;

  /// True when queued_jobs() order is append-stable: new arrivals only ever
  /// append, and the relative order of already-queued jobs never changes
  /// between passes (FCFS). Priority/SJF orders re-rank on every pass, so
  /// incremental queue suffixes are meaningless there.
  [[nodiscard]] virtual bool queue_order_stable() const = 0;

  /// Monotone token over queue appends: a token T captured after a pass
  /// means that pass saw every job appended before T was taken.
  [[nodiscard]] virtual std::uint64_t queue_tail_epoch() const = 0;

  /// Still-queued jobs appended since `epoch` was taken, in append order.
  [[nodiscard]] virtual std::vector<JobId> queued_jobs_after(
      std::uint64_t epoch) const = 0;

  /// Commit `alloc` for `job`, schedule its completion, remove it from the
  /// queue. The allocation must have been planned against the current
  /// cluster state (plan_start / materialize).
  virtual void start_job(JobId job, const Allocation& alloc) = 0;
};

/// Cumulative pass-instrumentation counters a policy may maintain. Strictly
/// write-only from the policy's perspective: nothing may ever *read* them on
/// a decision path (passivity contract — obs/trace_sink.hpp). The engine
/// snapshots them around each pass to annotate trace spans with per-pass
/// deltas, so the counts must only grow.
struct SchedulerStats {
  std::uint64_t passes = 0;        ///< schedule() invocations
  std::uint64_t fast_passes = 0;   ///< served entirely from a warm cache
  std::uint64_t jobs_examined = 0; ///< queue candidates judged
  /// plan_start / fit probes. A conservative reservation kept from the
  /// last pass counts as examined, not as a plan, even when a bounded
  /// sweep confirmed it.
  std::uint64_t plans_attempted = 0;
};

/// A scheduling policy. `schedule` is invoked by the engine after every
/// state change (submission or completion).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Pass-instrumentation counters, or nullptr when the policy keeps none.
  /// The pointer must stay valid for the scheduler's lifetime.
  [[nodiscard]] virtual const SchedulerStats* stats() const { return nullptr; }
  /// Scenario-metadata hook: does the policy consult memory/pool state when
  /// planning? The scenario library's expected-ordering claims (and the
  /// fig. 6 policy-discrimination suite) group policies by this, so a new
  /// memory-aware policy that forgets to override it will be tested against
  /// the wrong expectations.
  [[nodiscard]] virtual bool memory_aware() const { return false; }
  virtual void schedule(SchedContext& ctx) = 0;
};

}  // namespace dmsched
