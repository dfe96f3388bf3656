// Experiment runner: one struct describes a run end-to-end, so every bench
// binary and test speaks the same vocabulary.
#pragma once

#include <string>

#include "cluster/config.hpp"
#include "core/engine.hpp"
#include "core/factory.hpp"
#include "workload/models.hpp"
#include "workload/scenarios.hpp"

namespace dmsched {

/// A fully-specified simulation run.
struct ExperimentConfig {
  std::string label;
  ClusterConfig cluster;
  SchedulerKind scheduler = SchedulerKind::kMemAwareEasy;
  MemAwareOptions mem_options{};
  EngineOptions engine{};

  // Workload: generated on demand from a model...
  WorkloadModel model = WorkloadModel::kMixed;
  std::size_t jobs = 5000;
  std::uint64_t seed = 42;
  double target_load = 1.0;
  /// ...with footprints scaled against this reference (defaults to the
  /// *reference machine's* node size so shrinking local memory in
  /// `cluster` does not silently shrink the workload too).
  Bytes workload_reference_mem = gib(std::int64_t{256});
};

/// Generate the config's workload (deterministic in the config).
[[nodiscard]] Trace make_workload(const ExperimentConfig& config);

/// Run one experiment on a freshly generated workload.
[[nodiscard]] RunMetrics run_experiment(const ExperimentConfig& config);

/// Run one experiment on a caller-provided trace (for SWF replays and for
/// sharing one generated trace across many configs), served through an
/// EagerTraceSource.
[[nodiscard]] RunMetrics run_experiment(const ExperimentConfig& config,
                                        const Trace& trace);

/// Run one experiment drawing jobs from a pull-based source (streaming
/// replays). Sources are single-use: one run consumes `source`. The only
/// site in src/ that builds a SchedulingSimulation.
[[nodiscard]] RunMetrics run_experiment(const ExperimentConfig& config,
                                        TraceSource& source);

/// An experiment for `kind` on a library scenario's machine and workload
/// (label "scenario/scheduler"). Pair the result with the scenario's trace:
/// `run_experiment(cfg, scenario.trace)` or `run_sweep_on_trace` — the
/// synthetic-model fields of the returned config are *not* a substitute for
/// the scenario trace (trace-seeded scenarios have no generating model).
[[nodiscard]] ExperimentConfig scenario_experiment(const Scenario& scenario,
                                                   SchedulerKind kind);

/// Convenience: run one scheduler on one scenario.
[[nodiscard]] RunMetrics run_scenario(const Scenario& scenario,
                                      SchedulerKind kind);

/// Streaming counterpart: the experiment config for a scenario stream
/// (`jobs` falls back to the source's size hint); run it with
/// `run_experiment(cfg, *stream.source)`.
[[nodiscard]] ExperimentConfig scenario_experiment(
    const ScenarioStream& stream, SchedulerKind kind);

}  // namespace dmsched
