// Passive run telemetry: the observer interface the engine emits into.
//
// Observability in dmsched is *passive by contract*: an attached TraceSink
// receives copies of state the engine already computed — it injects no
// events, perturbs no decision, and a run with any sink attached produces
// RunMetrics byte-identical to the same run without one
// (tests/golden/trace_passivity_test.cpp enforces this across every pinned
// scenario). The null sink is a literal nullptr in EngineOptions: every
// emission site is guarded by one pointer test, so the disabled path costs
// no virtual call and no argument marshalling.
//
// Two time domains share the trace:
//  - simulated time (SimTime, µs since the trace epoch): job lifecycle
//    spans and scheduler pass spans;
//  - wall-clock time (nanoseconds): pass durations. Wall values are
//    nondeterministic and exist only inside sinks — nothing wall-clock
//    ever reaches RunMetrics or a golden table.
//
// Sinks must not throw: the engine treats a throwing observer as a
// programming error and aborts deterministically ("trace sink threw
// mid-run") rather than unwinding a half-mutated simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/time.hpp"

namespace dmsched::obs {

/// How much an attached sink is fed. Each level includes the previous.
enum class TraceDetail : std::uint8_t {
  kLifecycle = 0,  ///< job lifecycle spans (queued / run / rejected)
  kSched = 1,      ///< + one span per scheduler pass
  kFull = 2,       ///< + gauge samples (queue depth, pools, event queue)
};

[[nodiscard]] const char* to_string(TraceDetail detail);
/// Parse "lifecycle" | "sched" | "full"; nullopt on anything else.
[[nodiscard]] std::optional<TraceDetail> trace_detail_from_string(
    std::string_view s);

/// Static facts about the run, delivered once before the first event.
struct RunInfo {
  std::string label;         ///< "scheduler/machine" (RunMetrics::label)
  std::string cluster_name;  ///< machine name (may contain arbitrary bytes)
  std::int32_t racks = 0;
  std::int32_t total_nodes = 0;
  TraceDetail detail = TraceDetail::kFull;
};

/// A job entered the wait queue (its queued span opens at `submit`).
struct JobQueued {
  std::uint32_t job = 0;
  SimTime submit{};
  std::int32_t nodes = 0;
  double mem_per_node_gib = 0.0;
};

/// A job was rejected at submission (can never fit the machine).
struct JobRejected {
  std::uint32_t job = 0;
  SimTime at{};
};

/// A job started: its queued span closes and its run span opens on the
/// home rack's track.
struct JobStarted {
  std::uint32_t job = 0;
  SimTime submit{};  ///< when the queued span opened
  SimTime start{};
  std::int32_t rack = 0;  ///< home rack: rack of the first allocated node
  std::int32_t nodes = 0;
  double dilation = 1.0;
  double far_rack_gib = 0.0;
  double far_neighbor_gib = 0.0;
  double far_global_gib = 0.0;
};

/// A running job's pooled bytes moved between tiers (migration/) and its
/// slowdown was re-priced. Emitted on the job's home-rack track.
struct JobMigrated {
  std::uint32_t job = 0;
  SimTime at{};
  std::int32_t rack = 0;  ///< source pool (demote) or target pool (promote)
  bool demote = false;    ///< rack → global when true, global → rack else
  double gib = 0.0;
  double dilation_before = 1.0;
  double dilation_after = 1.0;
};

/// A job finished (its run span closes).
struct JobFinished {
  std::uint32_t job = 0;
  SimTime start{};
  SimTime end{};
  std::int32_t rack = 0;
  bool killed = false;
};

/// One scheduler pass, annotated with what it did. `examined` and `plans`
/// come from the policy's own SchedulerStats (sched/scheduler.hpp) and are
/// -1 when the policy does not maintain them.
struct PassSpan {
  std::uint64_t seq = 0;  ///< pass index within the run (0-based)
  SimTime at{};           ///< simulated time of the pass
  const char* kind = "";  ///< policy name ("easy", "conservative", ...)
  std::size_t queue_depth = 0;  ///< waiting jobs before the pass
  std::size_t running = 0;      ///< running jobs before the pass
  std::size_t started = 0;      ///< jobs this pass started
  std::int64_t examined = -1;   ///< queue candidates judged (-1 unknown)
  std::int64_t plans = -1;      ///< plan_start attempts (-1 unknown)
  bool fast_path = false;       ///< served from the incremental cache
  /// Wall-clock pass duration. Only measured at TraceDetail::kFull (the
  /// profiling level) — clock reads are the largest fixed per-pass cost, so
  /// kSched spans carry 0 here and stay within the tracing-overhead budget.
  std::int64_t wall_ns = 0;
};

/// System gauges sampled after a scheduler pass (TraceDetail::kFull).
/// Event-queue figures are the engine queue's live size and id window.
struct GaugeSample {
  SimTime at{};
  std::int32_t busy_nodes = 0;
  std::size_t queue_depth = 0;
  std::size_t running = 0;
  std::size_t event_queue_size = 0;
  std::size_t event_id_window = 0;
  double rack_pool_gib = 0.0;
  double global_pool_gib = 0.0;
};

/// The observer interface. Default implementations ignore everything, so a
/// sink overrides only what it consumes. Callbacks arrive in nondecreasing
/// simulated time, single-threaded, between on_run_begin and on_run_end.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void on_run_begin(const RunInfo& info) { (void)info; }
  virtual void on_job_queued(const JobQueued& e) { (void)e; }
  virtual void on_job_rejected(const JobRejected& e) { (void)e; }
  virtual void on_job_started(const JobStarted& e) { (void)e; }
  virtual void on_job_migrated(const JobMigrated& e) { (void)e; }
  virtual void on_job_finished(const JobFinished& e) { (void)e; }
  virtual void on_pass(const PassSpan& e) { (void)e; }
  virtual void on_gauges(const GaugeSample& e) { (void)e; }
  virtual void on_run_end(SimTime makespan) { (void)makespan; }
};

}  // namespace dmsched::obs
