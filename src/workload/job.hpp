// The static description of a batch job.
//
// This is the immutable submission record; all runtime state (queue
// position, start time, allocation) lives in the simulation engine so the
// same trace can be replayed under many schedulers.
#pragma once

#include <cstdint>

#include "common/resources.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace dmsched {

/// Index of a job within its trace.
using JobId = std::uint32_t;
constexpr JobId kInvalidJobId = UINT32_MAX;

/// How strongly a job's runtime reacts to far-memory placement.
///
/// Compute-bound codes touch memory rarely and barely notice extra latency;
/// bandwidth-bound codes stream through their footprint and feel the full
/// far-memory penalty. The multiplier scales the slowdown model's beta.
enum class MemSensitivity : std::uint8_t {
  kComputeBound = 0,
  kBalanced = 1,
  kBandwidthBound = 2,
};

/// Display name, e.g. for per-class breakdown tables.
[[nodiscard]] const char* to_string(MemSensitivity s);

/// One batch job as submitted.
struct Job {
  JobId id = kInvalidJobId;
  /// Submission time relative to the trace epoch.
  SimTime submit{};
  /// Number of nodes requested (node-exclusive allocation).
  std::int32_t nodes = 1;
  /// Memory footprint per allocated node.
  Bytes mem_per_node{};
  /// User-provided walltime request (upper bound; scheduler plans with it).
  SimTime walltime{};
  /// True runtime when served entirely from node-local memory.
  SimTime runtime{};
  /// Far-memory sensitivity class.
  MemSensitivity sensitivity = MemSensitivity::kBalanced;
  /// Originating user (trace statistics / fairness analyses).
  std::int32_t user = 0;
  /// Accelerators per allocated node. Zero (the default) means the job does
  /// not use GPUs — every legacy trace, SWF record, generator, and transform
  /// is untouched in meaning.
  std::int32_t gpus_per_node = 0;
  /// Job-global burst-buffer reservation. Zero means no staging.
  Bytes bb_bytes{};

  /// The full typed request this job makes of the cluster.
  [[nodiscard]] ResourceVector request() const {
    return ResourceVector{.nodes = nodes,
                          .mem_per_node = mem_per_node,
                          .gpus_per_node = gpus_per_node,
                          .bb_bytes = bb_bytes};
  }

  /// Aggregate footprint across all nodes.
  [[nodiscard]] Bytes total_mem() const {
    return mem_per_node * nodes;
  }
  /// Aggregate GPU count across all nodes.
  [[nodiscard]] std::int64_t total_gpus() const {
    return static_cast<std::int64_t>(gpus_per_node) * nodes;
  }
  /// Consumed node-seconds (runtime-based, undilated).
  [[nodiscard]] double used_node_seconds() const {
    return static_cast<double>(nodes) * runtime.seconds();
  }
};

/// The one check of a job's fields, run by Trace::make and on every pull.
/// Throws InputError naming the first bad one: nodes and runtime must be
/// > 0, walltime >= runtime, memory, GPUs and burst buffer >= 0.
void validate(const Job& j);

}  // namespace dmsched
