// Scheduler construction by name/kind — the single switch the harnesses use.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mem_aware_easy.hpp"
#include "sched/scheduler.hpp"

namespace dmsched {

/// Every scheduling policy the harnesses can construct by name.
enum class SchedulerKind {
  kFcfs,         ///< strict FCFS, no backfilling
  kEasy,         ///< EASY backfilling, node-only reservations (baseline)
  kConservative, ///< conservative backfilling over the 2-D profile
  kMemAwareEasy, ///< the paper's memory-aware EASY
  kAdaptive,     ///< memory-aware EASY + defer-vs-dilate routing
  /// Memory-aware EASY planning on every resource axis (GPUs, burst buffer)
  /// — the all-axes instantiation of the same template. Byte-identical to
  /// kMemAwareEasy on machines without GPUs or a burst buffer.
  kResourceAwareEasy,
};

[[nodiscard]] const char* to_string(SchedulerKind kind);
/// Parse a scheduler name (the inverse of to_string); nullopt if unknown.
[[nodiscard]] std::optional<SchedulerKind> scheduler_kind_from_string(
    const std::string& s);
/// The paper's evaluation set, in evaluation order. Deliberately excludes
/// kResourceAwareEasy: this list feeds the pinned discrimination goldens and
/// the published figure sweeps, which compare the paper's five policies.
/// resource-easy equals mem-easy on every legacy scenario (proven by
/// tests/sched/resource_aware_test) and diverges only on machines with GPUs
/// or a burst buffer.
[[nodiscard]] std::vector<SchedulerKind> all_scheduler_kinds();

/// Instantiate a scheduler. `mem_options` applies to the memory-aware
/// variants (ignored by the baselines).
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    SchedulerKind kind, const MemAwareOptions& mem_options = {});

}  // namespace dmsched
