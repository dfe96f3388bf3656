// Run metrics: everything the evaluation section reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"
#include "workload/job.hpp"

namespace dmsched {

/// Threshold for bounded slowdown (the conventional 10 seconds).
constexpr SimTime kBsldThreshold = seconds(std::int64_t{10});

/// Terminal state of one job after a run.
enum class JobFate : std::uint8_t {
  kCompleted,  ///< ran to completion
  kKilled,     ///< hit its walltime limit (when enforcement is on)
  kRejected,   ///< can never run on this machine configuration
};

/// Per-job outcome record.
struct JobOutcome {
  JobId id = kInvalidJobId;
  JobFate fate = JobFate::kCompleted;
  SimTime submit{};
  SimTime start{};  ///< meaningless for rejected jobs
  SimTime end{};
  /// Runtime dilation factor its allocation incurred (1.0 = all-local).
  double dilation = 1.0;
  /// Far bytes drawn from hosting-rack pools / neighbor-rack pools / the
  /// global pool. Final placement: migration re-tiers move bytes between
  /// these before the job ends. Neighbor is zero unless the placement
  /// routes cross-rack (rack-neighbor-global), so legacy tables are
  /// unchanged.
  Bytes far_rack{};
  Bytes far_neighbor{};
  Bytes far_global{};
  // Static job properties copied for breakdown tables:
  std::int32_t nodes = 0;
  Bytes mem_per_node{};
  SimTime runtime{};  ///< undilated
  MemSensitivity sensitivity = MemSensitivity::kBalanced;
  std::int32_t user = 0;  ///< submitting user (fairness analyses)

  [[nodiscard]] SimTime wait() const { return start - submit; }
  [[nodiscard]] SimTime response() const { return end - submit; }
  /// Bounded slowdown: (wait + dilated runtime) / max(undilated runtime, τ).
  /// Using the undilated denominator charges the dilation penalty to the
  /// metric, which is what a disaggregation study must measure.
  [[nodiscard]] double bounded_slowdown() const;
  [[nodiscard]] Bytes far_total() const {
    return far_rack + far_neighbor + far_global;
  }
  [[nodiscard]] bool used_far_memory() const { return !far_total().is_zero(); }
};

/// One checkpointed metrics window: system state integrated over
/// [start, end). Like TimeSample, windows are fed by the engine's one
/// transition hook (SchedulingSimulation::observe) — no observer injects
/// events, so runs with and without windowing are byte-identical
/// everywhere else. Windows are aligned to multiples of the checkpoint
/// interval in sim time; the last window may be partial.
struct MetricsWindow {
  SimTime start{};
  SimTime end{};
  /// Time integrals over the window (value × seconds):
  double busy_node_seconds = 0.0;
  double queued_job_seconds = 0.0;
  double running_job_seconds = 0.0;
  double rack_pool_gib_seconds = 0.0;
  double global_pool_gib_seconds = 0.0;
  /// Transition counts attributed to the window containing the event time:
  std::size_t jobs_submitted = 0;
  std::size_t jobs_started = 0;
  std::size_t jobs_finished = 0;
  std::size_t jobs_rejected = 0;
  /// Tier moves applied in the window (0 everywhere with migration off).
  std::size_t jobs_migrated = 0;
  double migrated_gib = 0.0;

  [[nodiscard]] double width_seconds() const { return (end - start).seconds(); }
  /// Mean busy nodes over the window (0 for a zero-width window).
  [[nodiscard]] double mean_busy_nodes() const {
    const double w = width_seconds();
    return w > 0.0 ? busy_node_seconds / w : 0.0;
  }
  [[nodiscard]] double mean_queued_jobs() const {
    const double w = width_seconds();
    return w > 0.0 ? queued_job_seconds / w : 0.0;
  }
};

/// One sample of the system time series (Fig. 7 style plots): the state at
/// boundary first_submit + k·interval after that instant's completions and
/// submissions, before its starts and moves. Read off the transition hook
/// (SchedulingSimulation::observe); sampling schedules no event.
struct TimeSample {
  SimTime time{};
  std::int32_t busy_nodes = 0;
  std::int32_t queued_jobs = 0;
  std::int32_t running_jobs = 0;
  Bytes rack_pool_used{};
  Bytes global_pool_used{};
};

/// Aggregated results of one simulation run.
struct RunMetrics {
  std::string label;
  std::vector<JobOutcome> jobs;
  std::vector<TimeSample> series;  ///< empty unless sampling was enabled
  /// Checkpointed windows; empty unless EngineOptions::checkpoint_interval
  /// was set. A streaming consumer can drop per-job outcomes and keep only
  /// these for month-scale replays.
  std::vector<MetricsWindow> windows;

  SimTime makespan{};  ///< first submission to last completion
  /// Node utilization: busy node-time / (total nodes × makespan).
  double node_utilization = 0.0;
  /// Mean/peak fraction of rack-pool capacity in use (0 when no pools).
  double rack_pool_utilization = 0.0;
  double rack_pool_peak = 0.0;
  double global_pool_utilization = 0.0;
  double global_pool_peak = 0.0;
  /// Peak fraction of the single busiest rack pool's capacity in use — the
  /// rack-imbalance signal (0 when there is no rack tier). A machine whose
  /// aggregate rack utilization looks comfortable can still have one rack
  /// pinned at 100%; placement strategies differ exactly here.
  double rack_pool_busiest_peak = 0.0;
  /// Mean/peak fraction of provisioned GPU devices in use. Zero on machines
  /// without GPUs (absent axes never move the legacy golden tables).
  double gpu_utilization = 0.0;
  double gpu_peak = 0.0;
  /// Mean/peak fraction of burst-buffer capacity reserved. Zero on machines
  /// without a burst buffer.
  double bb_utilization = 0.0;
  double bb_peak = 0.0;

  // --- derived aggregates (filled by finalize()) -------------------------
  std::size_t completed = 0;
  std::size_t killed = 0;
  std::size_t rejected = 0;
  double mean_wait_hours = 0.0;
  double p95_wait_hours = 0.0;
  double max_wait_hours = 0.0;
  double mean_bsld = 0.0;
  double p95_bsld = 0.0;
  double mean_dilation = 0.0;  ///< over started jobs
  double frac_jobs_far = 0.0;  ///< fraction of started jobs using any pool
  /// Fraction of started jobs drawing from the global tier specifically.
  double frac_jobs_global = 0.0;
  /// Remote-access fraction: Σ far bytes / Σ footprint bytes over started
  /// jobs — how much of the workload's memory was served beyond the node.
  double remote_access_fraction = 0.0;
  /// The multi-hop share of it: Σ global-tier bytes / Σ footprint bytes.
  double global_access_fraction = 0.0;
  /// Aggregate far-memory usage integrated over time (GiB·hours).
  double far_gib_hours = 0.0;
  /// Throughput: completed jobs per hour of makespan.
  double jobs_per_hour = 0.0;

  // --- migration (all zero with the default no-op policy) ----------------
  /// Tier moves applied: demotions (rack → global) and promotions (back).
  std::size_t demotions = 0;
  std::size_t promotions = 0;
  double demoted_gib = 0.0;
  double promoted_gib = 0.0;
  /// Move rate over the makespan (filled by finalize()).
  double migrations_per_hour = 0.0;
  /// Σ neighbor-tier bytes / Σ footprint bytes over started jobs — the
  /// distance-graded middle hop's share (filled by finalize()).
  double neighbor_access_fraction = 0.0;

  /// Compute the derived aggregates from `jobs`. Call once after the run.
  void finalize();
};

}  // namespace dmsched
