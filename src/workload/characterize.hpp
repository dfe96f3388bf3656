// Trace characterization: the statistics Table I of the evaluation reports.
#pragma once

#include <vector>

#include "workload/trace.hpp"

namespace dmsched {

/// Summary statistics of one trace, relative to a reference node size.
struct TraceStats {
  std::size_t job_count = 0;
  double span_hours = 0.0;

  double nodes_mean = 0.0;
  double nodes_p50 = 0.0;
  double nodes_max = 0.0;

  double runtime_mean_hours = 0.0;
  double runtime_p50_hours = 0.0;

  /// Mean walltime-request accuracy: runtime / walltime (1.0 = exact).
  double estimate_accuracy_mean = 0.0;

  double mem_per_node_mean_gib = 0.0;
  double mem_per_node_p50_gib = 0.0;
  double mem_per_node_p95_gib = 0.0;
  /// Fraction of jobs whose per-node footprint exceeds 50% of reference.
  double frac_mem_above_half = 0.0;
  /// Fraction of jobs that do not fit in reference local memory at all —
  /// the population that *requires* disaggregation.
  double frac_mem_above_full = 0.0;

  /// Offered load against the given machine size.
  double offered_load = 0.0;

  std::int32_t distinct_users = 0;
};

/// Compute Table-I statistics for a trace.
[[nodiscard]] TraceStats characterize(const Trace& trace,
                                      Bytes reference_node_mem,
                                      std::int64_t machine_nodes);

/// Per-node memory footprints in GiB (input to CDF figures).
[[nodiscard]] std::vector<double> memory_footprints_gib(const Trace& trace);

/// One (x, F(x)) point of an empirical CDF.
struct CdfPoint {
  double x;
  double cumulative_fraction;
};

/// Empirical CDF down-sampled to `points` evenly spaced quantiles —
/// exactly what a paper's CDF figure plots.
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(std::vector<double> samples,
                                                  std::size_t points);

}  // namespace dmsched
