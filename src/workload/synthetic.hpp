// Synthetic workload generation.
//
// Substitute for production traces (see DESIGN.md §Substitutions): a
// parametric model of arrivals, job shapes, runtimes, walltime estimates and
// per-node memory footprints. Parameters are chosen in workload/models.cpp
// to match the summary statistics of archetypal production centers.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workload/trace.hpp"
#include "workload/trace_source.hpp"

namespace dmsched {

/// Full parametric description of a synthetic workload.
struct SyntheticSpec {
  std::string name = "synthetic";
  std::size_t job_count = 5000;

  // --- arrivals ---------------------------------------------------------
  /// Base Poisson arrival rate (jobs per hour).
  double arrival_rate_per_hour = 40.0;
  /// Diurnal modulation amplitude in [0,1): rate(t) follows a 24h sinusoid
  /// `base * (1 + A sin(2π t/24h))` — production arrival series are strongly
  /// diurnal, which matters for backfilling behaviour.
  double diurnal_amplitude = 0.35;

  // --- job width (nodes) -------------------------------------------------
  /// Nodes are drawn from weighted buckets, log-uniform within a bucket and
  /// snapped to a power of two with probability `pow2_bias` (users request
  /// powers of two far more often than anything else).
  struct NodeBucket {
    std::int32_t lo = 1;
    std::int32_t hi = 1;
    double weight = 1.0;
  };
  std::vector<NodeBucket> node_buckets{{1, 1, 0.25},
                                       {2, 16, 0.45},
                                       {17, 128, 0.25},
                                       {129, 512, 0.05}};
  double pow2_bias = 0.6;

  // --- runtime and walltime ----------------------------------------------
  /// Runtime ~ clipped lognormal (seconds).
  double runtime_log_mean = 8.2;  // e^8.2 ≈ 1h
  double runtime_log_sigma = 1.4;
  double runtime_min_sec = 60.0;
  double runtime_max_sec = 24.0 * 3600.0;
  /// Walltime = runtime · U(1, overestimate_max), except an
  /// `exact_fraction` of users who request runtime rounded up to 5 min.
  /// Mirrors the well-documented inaccuracy of user estimates.
  double walltime_overestimate_max = 5.0;
  double walltime_exact_fraction = 0.15;
  /// Requests are rounded up to this granularity (seconds).
  double walltime_rounding_sec = 900.0;

  // --- memory footprint ---------------------------------------------------
  /// Reference node-local memory capacity. Footprints are expressed as a
  /// fraction of this so the same spec scales with the machine config.
  Bytes reference_node_mem = gib(std::int64_t{256});
  /// Per-node footprint bands (fraction of reference), weighted. Fractions
  /// above 1.0 describe jobs that *cannot* run without disaggregated memory
  /// on a full-size node — the population the paper's system unlocks.
  struct MemBand {
    double lo_frac = 0.05;
    double hi_frac = 0.25;
    double weight = 1.0;
  };
  std::vector<MemBand> mem_bands{{0.02, 0.25, 0.55},
                                 {0.25, 0.75, 0.30},
                                 {0.75, 1.00, 0.12},
                                 {1.00, 1.50, 0.03}};

  // --- application behaviour ----------------------------------------------
  /// Sensitivity class weights: {compute-bound, balanced, bandwidth-bound}.
  std::array<double, 3> sensitivity_weights{0.35, 0.45, 0.20};

  /// Number of distinct users; jobs are assigned Zipf-like (a few heavy
  /// users dominate, as in every archive trace).
  std::int32_t user_count = 64;
};

/// Generate a trace from a spec. Deterministic in (spec, seed).
[[nodiscard]] Trace generate_trace(const SyntheticSpec& spec,
                                   std::uint64_t seed);

/// Generate and rescale arrivals so offered load against `machine_nodes`
/// equals `target_load` (e.g. 0.85 for a busy production system); the first
/// job then submits at 0. Throws std::invalid_argument for a target that
/// OfferedLoad::scale_to rejects.
[[nodiscard]] Trace generate_trace_with_load(const SyntheticSpec& spec,
                                             std::uint64_t seed,
                                             std::int64_t machine_nodes,
                                             double target_load);

/// Pull-based equivalent of generate_trace_with_load: yields the identical
/// jobs one at a time at O(1) memory. A deterministic prepass replays the
/// same RNG streams through the same OfferedLoad fold (so the arrival scale
/// matches the eager builder bit-for-bit), then a second pass yields
/// the jobs. Deterministic in all arguments; draining the source equals the
/// eager trace job-for-job (pinned by tests/workload/trace_source_test).
[[nodiscard]] std::unique_ptr<TraceSource> make_synthetic_source(
    const SyntheticSpec& spec, std::uint64_t seed, std::int64_t machine_nodes,
    double target_load);

}  // namespace dmsched
