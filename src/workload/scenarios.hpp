// The scenario library: named, deterministic Trace + ClusterConfig bundles.
//
// Every experiment surface (dmsched-sim, benches, examples, tests) selects
// standard scenarios from this registry by name, so "the memory-stressed
// scenario" means exactly the same jobs on exactly the same machine
// everywhere — the precondition for comparing policies across tools and for
// pinning golden metrics. docs/SCENARIOS.md documents each scenario's
// intent, parameters, the paper figure it backs, and the expected policy
// ordering.
//
// Layering note: this is the one workload/ file that sits *below* cluster/
// in the dependency order (it bundles machines with traces). It may include
// workload/ and cluster/ but nothing further down; see src/README.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "topology/topology.hpp"
#include "workload/trace.hpp"
#include "workload/trace_source.hpp"

namespace dmsched {

/// Tunable knobs accepted by every scenario factory. Zero/empty means "use
/// the scenario's published default", so default-constructed params always
/// reproduce the documented scenario bit-for-bit.
struct ScenarioParams {
  /// Job count (synthetic scenarios: generated count; trace-seeded
  /// scenarios: replicated-then-truncated count).
  std::size_t jobs = 0;
  /// Workload seed (ignored by trace-seeded scenarios with no randomness).
  std::uint64_t seed = 0;
  /// Offered-load target against the scenario machine.
  double load = 0.0;
  /// Machine-scale multiplier on the node count (capacity-planning studies:
  /// "the same regime, on a machine k× the size"). Applied *before* the
  /// workload is built, so job widths and offered load adapt to the scaled
  /// machine; the result is snapped to whole racks (min one rack). 0 means
  /// 1.0 — the published machine. Must be finite and > 0 otherwise.
  double node_scale = 0.0;
  /// Machine-scale multiplier on disaggregated capacity (rack pools and the
  /// global tier together). 0 means 1.0; must be finite and > 0. A scenario
  /// with no pools stays poolless at any scale. Scaling a published tier to
  /// zero capacity throws (see topology/ `ensure_tiers_survive`).
  double pool_scale = 0.0;

  // --- topology knobs (see topology/topology.hpp) -------------------------
  /// Re-rack the machine into exactly this many racks, preserving the rack
  /// tier's total bytes. 0 = the published racking; must divide the (scaled)
  /// node count exactly otherwise.
  std::int32_t racks = 0;
  /// Re-split the machine's total disaggregated capacity: this fraction
  /// becomes rack-local pools, the rest the global tier. Negative (default)
  /// keeps the published split; otherwise must lie in [0, 1], and a split
  /// that rounds a requested tier to zero capacity throws.
  double rack_pool_frac = -1.0;
  /// Multiplier on the remote-tier slowdown coefficients (rack and global
  /// β together): distance penalties k× the published model. 0 means 1.0;
  /// must be finite and > 0. Resolved into Scenario::remote_penalty and
  /// applied to EngineOptions::slowdown by scenario_experiment().
  double remote_penalty = 0.0;

  // --- resource-vector knobs (see common/resources.hpp) -------------------
  /// Override the GPUs provisioned per node (rack-pooled devices; see
  /// ClusterConfig::gpus_per_node). 0 keeps the scenario's published
  /// provisioning — zero for every legacy scenario, so default params never
  /// grow a GPU axis under an existing workload. Must be >= 0.
  std::int32_t gpus_per_node = 0;
  /// Override the cluster-global burst-buffer capacity. Zero keeps the
  /// published capacity (no burst buffer for legacy scenarios). Must be
  /// >= 0 bytes.
  Bytes bb_capacity{};
};

/// Registry metadata: what a scenario is for, before paying to build it.
struct ScenarioInfo {
  std::string name;
  std::string summary;
  /// Which paper figure/table the scenario backs (e.g. "fig. 6 / table 3").
  std::string paper_figure;
  /// The policy ordering the scenario is designed to exhibit, as a
  /// human-readable claim (validated by tests/golden/).
  std::string expected_ordering;
  /// True for scale/throughput workloads (e.g. large-replay's 100k-job
  /// default) rather than paper-figure regimes. Consumers that loop
  /// scenario_names() and *run* every scenario (policy tables, sweeps)
  /// should skip infrastructure scenarios unless scale is the point.
  bool infrastructure = false;
};

/// A fully built scenario: the machine, the workload, and the reference
/// node size its footprints were scaled against.
struct Scenario {
  ScenarioInfo info;
  ClusterConfig cluster;
  /// Reference node-local memory the workload's footprints are expressed
  /// against (may exceed the machine's actual local memory — that gap is
  /// the memory pressure).
  Bytes workload_reference_mem{};
  /// Resolved remote-penalty multiplier for the slowdown model (1.0 = the
  /// published model; scenarios.* cannot name SlowdownModel itself — it
  /// lives a layer up — so core/scenario_experiment applies this).
  double remote_penalty = 1.0;
  Trace trace;
};

/// All registered scenario names, in registry (documentation) order.
[[nodiscard]] std::vector<std::string> scenario_names();

/// True if `name` is a registered scenario.
[[nodiscard]] bool scenario_exists(const std::string& name);

/// Metadata for one scenario without building its trace.
/// Throws InputError naming `scenario` for unknown names.
[[nodiscard]] const ScenarioInfo& scenario_info(const std::string& name);

/// Build a scenario by name. Deterministic: the same (name, params) always
/// produces byte-identical traces and configs.
/// Throws InputError naming `scenario` (listing the known names) for
/// unknown names, and naming the knob for a bad ScenarioParams value.
[[nodiscard]] Scenario make_scenario(const std::string& name,
                                     const ScenarioParams& params = {});

/// A scenario whose workload is a pull-based stream instead of a
/// materialized Trace: the same machine and metadata, jobs delivered
/// incrementally. Each registry row names one workload source (a synthetic
/// model or the tiled SWF day) and an optional order-preserving decorator;
/// make_scenario and make_scenario_stream both build from that row, so
/// draining `source` yields exactly the jobs of
/// `make_scenario(name, params).trace`, same order and same ids (pinned by
/// tests/workload/trace_source_test.cpp). The eager SWF build is a drain of
/// this stream. Both sources are genuinely incremental (O(1) workload memory
/// at any job count); that is what makes the million-job replays feasible.
struct ScenarioStream {
  ScenarioInfo info;
  ClusterConfig cluster;
  Bytes workload_reference_mem{};
  double remote_penalty = 1.0;
  std::unique_ptr<TraceSource> source;
};

/// Streaming counterpart of make_scenario. Deterministic in (name, params);
/// throws InputError for unknown names and bad knobs.
[[nodiscard]] ScenarioStream make_scenario_stream(
    const std::string& name, const ScenarioParams& params = {});

}  // namespace dmsched
