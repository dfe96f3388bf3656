// SchedulingSimulation: binds a job source, a machine, and a scheduler into
// one deterministic discrete-event run and produces RunMetrics.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/stats.hpp"
#include "core/metrics.hpp"
#include "memory/placement.hpp"
#include "memory/slowdown.hpp"
#include "migration/migration.hpp"
#include "obs/trace_sink.hpp"
#include "topology/topology.hpp"
#include "sched/profile.hpp"
#include "sched/queue_policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "workload/trace_source.hpp"

namespace dmsched {

namespace obs {
class CounterRegistry;
struct Gauge;
}  // namespace obs

/// Engine-level knobs shared by all schedulers.
struct EngineOptions {
  PlacementPolicy placement{};
  SlowdownModel slowdown{};
  QueueOrder queue_order = QueueOrder::kFcfs;
  /// Enforce walltime limits: a job whose *dilated* runtime exceeds its
  /// request is killed at the limit, as production RJMSs do. Off by default
  /// so dilation effects are measured in full (see DESIGN.md §4).
  bool kill_on_walltime = false;
  /// Sample the system time series at this interval (0 = disabled).
  /// Passive like checkpoint_interval: samples are read off the engine's
  /// transition stream, so enabling them schedules no event.
  SimTime sample_interval{};
  /// Run a full cluster audit after every completion (tests only; O(nodes)).
  bool audit_cluster = false;
  /// How many un-fired submission events to keep scheduled ahead of the
  /// clock (0 = unbounded: the whole trace is pre-pushed, the historical
  /// behaviour). Any positive window produces byte-identical RunMetrics —
  /// the event order proof is in src/README.md — while shrinking the event
  /// queue's live id window from O(trace) to O(lookahead + running).
  std::size_t submit_lookahead = 0;
  /// Emit windowed metrics checkpoints at this interval (0 = disabled).
  /// Passive: fed by the transition stream, it injects no events and
  /// perturbs nothing.
  SimTime checkpoint_interval{};
  /// Live tier migration (migration/). The default is the 0-sentinel: a zero
  /// check_interval schedules no events, so every published machine stays
  /// byte-identical with migration off.
  MigrationPolicy migration{};
  /// Passive observability (obs/): when non-null the engine emits job
  /// lifecycle spans, scheduler pass spans, and gauge samples into the sink
  /// at `trace_detail` granularity. Null = zero overhead: every emission
  /// site is a single branch on this pointer, so the disabled path makes no
  /// virtual call and marshals no arguments. Like checkpoint_interval,
  /// attaching a sink injects no events and perturbs nothing — RunMetrics
  /// are byte-identical either way (tests/golden/trace_passivity_test.cpp).
  obs::TraceSink* sink = nullptr;
  obs::TraceDetail trace_detail = obs::TraceDetail::kFull;
  /// When non-null, end-of-run totals (events, passes, job fates) and gauge
  /// envelopes land in this registry. Everything written is deterministic —
  /// no wall-clock values — so a counters dump diffs as cleanly as a golden.
  obs::CounterRegistry* counters = nullptr;
};

/// One simulation run. Create, call run(), read the metrics.
///
/// Jobs are pulled from a TraceSource (held by reference, single-use; an
/// in-memory Trace enters through EagerTraceSource). Each pulled job is
/// copied into a ring of live-job slots indexed by pull order and retired
/// from the ring's front once it and every earlier job are terminal, so
/// with a bounded `submit_lookahead` per-job state is O(live span), not
/// O(trace). Any look-ahead produces byte-identical RunMetrics.
///
/// Lifecycle semantics (DESIGN.md §4):
///  - submissions enter the queue unless the job can never fit the machine
///    (rejected with fate kRejected);
///  - a scheduling pass runs after all state changes at a timestamp;
///  - a started job completes after runtime × dilation;
///  - planning bounds (`RunningJob::expected_end`) use walltime × dilation.
class SchedulingSimulation final : public SchedContext {
 public:
  /// The source must outlive the simulation. Job ids are assigned in pull
  /// order (0, 1, 2, ...) regardless of the ids the source reports. Throws
  /// InputError naming the field when `options.slowdown` or
  /// `options.migration` fails its validate().
  SchedulingSimulation(ClusterConfig config, TraceSource& source,
                       std::unique_ptr<Scheduler> scheduler,
                       EngineOptions options);

  /// Run to completion (all jobs terminal) and return the metrics. Throws
  /// InputError naming the job's pull ordinal and the field when
  /// the source yields an invalid job or breaks submission order.
  RunMetrics run();

  // --- SchedContext ---------------------------------------------------------
  [[nodiscard]] SimTime now() const override;
  [[nodiscard]] const Cluster& cluster() const override;
  [[nodiscard]] const Job& job(JobId id) const override;
  [[nodiscard]] std::vector<JobId> queued_jobs() const override;
  [[nodiscard]] PlacementPolicy placement() const override;
  [[nodiscard]] const SlowdownModel& slowdown() const override;
  [[nodiscard]] const Topology& topology() const override;
  [[nodiscard]] MigrationPolicy migration() const override;
  [[nodiscard]] const AvailabilityTimeline* timeline() const override;
  [[nodiscard]] bool queue_order_stable() const override;
  [[nodiscard]] std::uint64_t queue_tail_epoch() const override;
  [[nodiscard]] std::vector<JobId> queued_jobs_after(
      std::uint64_t epoch) const override;
  void start_job(JobId id, const Allocation& alloc) override;

  // --- instrumentation (valid after run()) ---------------------------------
  /// Total events the simulation processed.
  [[nodiscard]] std::size_t events_processed() const {
    return engine_.events_processed();
  }
  /// Peak live event-id window of the underlying queue — the memory figure
  /// bounded submission look-ahead shrinks (see sim/event_queue.hpp).
  [[nodiscard]] std::size_t peak_event_id_window() const {
    return engine_.peak_id_window();
  }
  /// Order-sensitive digest over semantic transitions (submit/start/finish
  /// with job id and sim time). Two runs that drain events in the same
  /// semantic order agree on this even when raw event ids differ (a full
  /// pre-push and a bounded look-ahead issue different id sequences); the
  /// differential harness compares it across look-aheads.
  [[nodiscard]] std::uint64_t event_digest() const { return digest_; }

 private:
  enum class JobState : std::uint8_t {
    kPending,   ///< submission event not fired yet
    kQueued,    ///< waiting
    kRunning,
    kDone,      ///< completed or killed
    kRejected,  ///< can never fit this machine
  };
  /// Which intrusive job list (if any) a job is linked into. The slot makes
  /// queue/running removal a *checked* O(1) unlink: erase asserts the job is
  /// a member of the list it is being removed from instead of trusting a
  /// std::find to have succeeded.
  enum class JobListId : std::uint8_t { kNone, kQueue, kRunning };

  struct JobRuntime {
    JobState state = JobState::kPending;
    SimTime start{};
    SimTime end{};
    SimTime expected_end{};
    double dilation = 1.0;
    bool killed = false;
    Bytes far_rack{};
    Bytes far_neighbor{};
    Bytes far_global{};
    /// Undilated work completed in finished dilation segments (a migration
    /// re-price closes a segment; jobs that never migrate keep 0 here).
    SimTime work_done{};
    /// When the current dilation segment opened (start, or the last re-price).
    SimTime seg_start{};
    /// The pending completion event, cancelled + rescheduled on re-price.
    sim::EventId completion_event = sim::kInvalidEventId;
    /// Rack of the first allocated node — the trace track the job's run
    /// span lives on (obs/).
    std::int32_t home_rack = 0;
    /// Intrusive doubly-linked-list slots (a job is in at most one list at a
    /// time — queued xor running — so one pair of links suffices).
    JobId list_prev = kInvalidJobId;
    JobId list_next = kInvalidJobId;
    JobListId list = JobListId::kNone;
  };

  /// One live job: the pulled record and its runtime state.
  struct JobSlot {
    Job job;
    JobRuntime rt;
  };

  /// The live-job ring: slots for ids [base, end) in pull order, the slot of
  /// `id` sitting (id - base) places after the head, wrapping. Jobs enter at
  /// the back in pull_one and leave from the front once terminal.
  class JobRing {
   public:
    /// Grow to at least `capacity` slots, moving every live slot (see
    /// pull_one for why no slot reference is held then).
    void reserve(std::size_t capacity);
    /// Append the next pulled job as id end(); a full ring doubles.
    void push(Job job);
    void pop_front();
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] JobId base() const { return base_; }
    /// The id the next push receives.
    [[nodiscard]] JobId end() const {
      return base_ + static_cast<JobId>(count_);
    }
    [[nodiscard]] bool live(JobId id) const {
      return id >= base_ && id - base_ < count_;
    }
    /// Dies on an id that is not live (retired or never pulled).
    [[nodiscard]] const JobSlot& operator[](JobId id) const;
    [[nodiscard]] JobSlot& operator[](JobId id) {
      return const_cast<JobSlot&>(std::as_const(*this)[id]);
    }

   private:
    [[nodiscard]] std::size_t index(std::size_t offset) const {
      const std::size_t i = head_ + offset;
      return i < slots_.size() ? i : i - slots_.size();
    }

    std::vector<JobSlot> slots_;
    std::size_t head_ = 0;   ///< slot of id base_
    std::size_t count_ = 0;  ///< live span end() - base_
    JobId base_ = 0;         ///< oldest unretired id
  };

  /// Intrusive doubly-linked list over the JobRuntime link slots: O(1)
  /// push_back and O(1) checked erase, with iteration in insertion order —
  /// byte-identical to the order the old vector kept under
  /// erase-from-the-middle, which the goldens pin.
  struct JobList {
    JobId head = kInvalidJobId;
    JobId tail = kInvalidJobId;
    std::size_t count = 0;
    JobListId id = JobListId::kNone;

    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] std::size_t size() const { return count; }
    void push_back(JobRing& ring, JobId job);
    void erase(JobRing& ring, JobId job);
    /// Collect ids head → tail (insertion order).
    [[nodiscard]] std::vector<JobId> to_vector(const JobRing& ring) const;
  };

  /// One observed state change. Each of the five calls observe() once,
  /// after its mutation and before retire_front().
  struct Transition {
    enum class Kind : std::uint8_t {
      kQueued, kRejected, kStarted, kFinished, kMigrated
    };
    Kind kind;
    JobId job;
    const MigrationDecision* move = nullptr;  ///< kMigrated only
    double dilation_before = 1.0;             ///< kMigrated only
  };

  void handle_submit(JobId id);
  void handle_complete(JobId id);
  /// Periodic kMigration event: plan moves over the running list (insertion
  /// order — deterministic), dispatch each (delayed by the bandwidth knob or
  /// applied in place), then self-reschedule while jobs are live.
  void migration_check();
  /// Land one move: re-validate against the live ledger (the copy may have
  /// raced a completion), retier the draws, and re-price the job's slowdown
  /// — rescheduling its completion for the remaining work at the new rate.
  void apply_migration(const MigrationDecision& decision, bool delayed);
  /// Price a running job's remaining work from `t` on `alloc`: dilation,
  /// the walltime kill, end, expected_end and far bytes. The take lives
  /// only in the timeline entry the caller passes it to.
  void price(JobRuntime& r, const Job& j, const Allocation& alloc, SimTime t);
  void request_schedule_pass();
  /// The body of a kSchedule event: runs the scheduler, and — only when a
  /// sink or counter registry is attached — wraps it with span/gauge
  /// emission. The disabled path is the bare scheduler call.
  void run_scheduler_pass();
  /// End-of-run totals and envelopes into options_.counters.
  void fill_counters();

  // --- observation ----------------------------------------------------------
  /// The one observation hook: the digest, the windows, the series, the
  /// usage means and the sink are all fed from here and nowhere else.
  void observe(const Transition& t);

  /// Pull the next job from the source, validate it (throwing InputError),
  /// copy it into the ring under the next sequential id, and schedule its
  /// submission event. False when the input is exhausted. The only place the
  /// ring grows.
  bool pull_one();
  /// Top up pending submission events to the look-ahead window (all of them
  /// when the window is unbounded).
  void refill_submissions();
  /// Pop terminal jobs off the ring's front, appending their outcomes to
  /// metrics_.jobs — in id order, because the ring retires in pull order.
  void retire_front();

  /// Fold a semantic transition into the event digest (FNV-1a style).
  void digest_fold(std::uint64_t v) {
    digest_ = (digest_ ^ v) * 1099511628211ULL;
  }

  ClusterConfig config_;
  TraceSource& source_;
  std::unique_ptr<Scheduler> scheduler_;
  EngineOptions options_;

  sim::Engine engine_;
  Cluster cluster_;
  MigrationEngine migration_;
  Topology topology_;  ///< the machine's rack-scale memory model
  /// Persistent availability view, updated push-style on start/finish —
  /// the structure incremental scheduler passes key their caches on.
  AvailabilityTimeline timeline_;
  /// Admission ("runnable at all?"): the machine with nothing running and
  /// one scratch plan, so handle_submit's probe allocates nothing per job.
  ResourceState admission_state_;
  TakePlan admission_plan_;
  /// One past the last id appended to queue_: the queue tail epoch. Appends
  /// happen only in handle_submit, whose events fire in pull order (equal
  /// submit times pop by seq, and pull_one schedules them in pull order),
  /// so queue ids rise from head to tail; starts only unlink. Pull order is
  /// (submit, id) order — pull_one rejects a decreasing submit — so the
  /// list is always in FCFS order and queued_jobs_after(t) is its suffix
  /// of ids >= t. handle_submit asserts the rising ids.
  std::uint64_t queue_token_ = 0;
  JobRing ring_;
  JobList queue_{.id = JobListId::kQueue};      // waiting, insertion order
  JobList running_{.id = JobListId::kRunning};  // running, insertion order
  std::size_t live_jobs_ = 0;   // not yet terminal
  bool pass_pending_ = false;
  bool run_called_ = false;
  std::uint64_t pass_seq_ = 0;  ///< scheduler passes run (one ++ per pass)

  /// Registry slots of the per-pass gauges, resolved on the first pass
  /// (name lookup allocates; doing it every pass would dominate the
  /// observation cost).
  std::vector<obs::Gauge*> pass_gauges_;

  // --- lazy submission state ----------------------------------------------
  SimTime last_pull_submit_{};      ///< monotonicity check across pulls
  bool source_dry_ = false;         ///< input exhausted
  std::size_t pending_submissions_ = 0;  ///< scheduled but un-fired
  SimTime first_submit_{};          ///< first pulled job's submit time
  std::uint64_t digest_ = 1469598103934665603ULL;  ///< FNV-1a offset basis

  // --- windows and series --------------------------------------------------
  /// Usage after the last transition (`time` unused). Nothing between two
  /// transitions changes it, so windows and samples read it instead of the
  /// live state. Kept only when either is on.
  bool track_usage_ = false;
  TimeSample usage_;
  /// The first series boundary not emitted (never, with sampling off).
  SimTime next_sample_ = kTimeInfinity;
  SimTime window_frontier_{};       ///< usage integrated up to here
  std::int64_t window_index_ = 0;   ///< index of the open window
  MetricsWindow window_acc_;        ///< the open window's accumulator

  // Migration byte totals; their GiB values go into RunMetrics after the
  // run (the GiB of a sum, not a sum of GiB values).
  Bytes demoted_bytes_{};
  Bytes promoted_bytes_{};

  RunMetrics metrics_;
  TimeWeightedMean busy_nodes_tw_;
  TimeWeightedMean rack_pool_tw_;
  TimeWeightedMean global_pool_tw_;
  TimeWeightedMean gpu_tw_;         ///< devices in use (GPU machines only)
  TimeWeightedMean bb_tw_;          ///< burst-buffer bytes reserved
  Bytes busiest_rack_pool_peak_{};  ///< max single-rack pool draw observed
  SimTime last_end_{};
};

}  // namespace dmsched
