// Named workload models: the three archetypal centers the evaluation uses.
//
// Each model is a fully-specified SyntheticSpec tuned so its generated
// traces match the published summary statistics of the corresponding class
// of production systems (see DESIGN.md §Substitutions). The evaluation
// always refers to workloads by these names.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "workload/synthetic.hpp"

namespace dmsched {

/// The evaluation's workload archetypes.
enum class WorkloadModel {
  /// Leadership/capability center: wide jobs, long runtimes, mostly
  /// compute-bound, modest memory pressure (think ALCF/OLCF-class).
  kCapability,
  /// Capacity/analytics center: many narrow jobs, short runtimes, heavy
  /// per-node memory footprints (genomics/data-analysis mix).
  kCapacity,
  /// Mid-size university center: broad mix of both populations.
  kMixed,
};

/// All models, in evaluation order.
[[nodiscard]] std::vector<WorkloadModel> all_workload_models();

/// Stable display name ("capability", "capacity", "mixed").
[[nodiscard]] const char* to_string(WorkloadModel m);

/// Parse a model name (the inverse of to_string); nullopt if unknown.
[[nodiscard]] std::optional<WorkloadModel> workload_model_from_string(
    const std::string& s);

/// The tuned spec for a model, scaled to a machine with `max_nodes` nodes
/// and `reference_node_mem` of local memory per node.
[[nodiscard]] SyntheticSpec model_spec(WorkloadModel m, std::int32_t max_nodes,
                                       Bytes reference_node_mem);

/// Convenience: generate `jobs` jobs of model `m` at `target_load` against a
/// `machine_nodes`-node machine. Deterministic in all arguments.
[[nodiscard]] Trace make_model_trace(WorkloadModel m, std::size_t jobs,
                                     std::uint64_t seed,
                                     std::int32_t machine_nodes,
                                     Bytes reference_node_mem,
                                     double target_load);

/// Streaming counterpart of make_model_trace: the identical jobs as a
/// pull-based source (see make_synthetic_source). Draining it equals the
/// eager trace job-for-job.
[[nodiscard]] std::unique_ptr<TraceSource> make_model_source(
    WorkloadModel m, std::size_t jobs, std::uint64_t seed,
    std::int32_t machine_nodes, Bytes reference_node_mem, double target_load);

}  // namespace dmsched
