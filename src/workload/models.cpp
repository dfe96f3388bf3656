#include "workload/models.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dmsched {

std::vector<WorkloadModel> all_workload_models() {
  return {WorkloadModel::kCapability, WorkloadModel::kCapacity,
          WorkloadModel::kMixed};
}

const char* to_string(WorkloadModel m) {
  switch (m) {
    case WorkloadModel::kCapability: return "capability";
    case WorkloadModel::kCapacity: return "capacity";
    case WorkloadModel::kMixed: return "mixed";
  }
  return "?";
}

std::optional<WorkloadModel> workload_model_from_string(const std::string& s) {
  if (s == "capability") return WorkloadModel::kCapability;
  if (s == "capacity") return WorkloadModel::kCapacity;
  if (s == "mixed") return WorkloadModel::kMixed;
  return std::nullopt;
}

SyntheticSpec model_spec(WorkloadModel m, std::int32_t max_nodes,
                         Bytes reference_node_mem) {
  DMSCHED_ASSERT(max_nodes >= 8, "model_spec: machine too small");
  SyntheticSpec spec;
  spec.reference_node_mem = reference_node_mem;
  const auto frac_nodes = [&](double f) {
    return std::max<std::int32_t>(
        1, static_cast<std::int32_t>(f * static_cast<double>(max_nodes)));
  };

  switch (m) {
    case WorkloadModel::kCapability:
      spec.name = "capability";
      // Wide, long jobs; runtime median ~2.5h; weak memory pressure but a
      // visible >100% band (the "can't run today" population).
      spec.node_buckets = {{1, 1, 0.10},
                           {2, frac_nodes(0.02), 0.30},
                           {frac_nodes(0.02) + 1, frac_nodes(0.15), 0.40},
                           {frac_nodes(0.15) + 1, frac_nodes(0.50), 0.20}};
      spec.runtime_log_mean = 9.1;  // e^9.1 ≈ 2.5 h
      spec.runtime_log_sigma = 1.1;
      spec.runtime_max_sec = 36.0 * 3600.0;
      spec.mem_bands = {{0.02, 0.20, 0.60},
                        {0.20, 0.60, 0.28},
                        {0.60, 1.00, 0.09},
                        {1.00, 1.40, 0.03}};
      spec.sensitivity_weights = {0.50, 0.38, 0.12};
      spec.arrival_rate_per_hour = 25.0;
      break;

    case WorkloadModel::kCapacity:
      spec.name = "capacity";
      // Narrow, short, memory-hungry jobs; a fat >=75% band and a
      // significant population above node capacity.
      spec.node_buckets = {{1, 1, 0.45},
                           {2, 8, 0.35},
                           {9, frac_nodes(0.05), 0.15},
                           {frac_nodes(0.05) + 1, frac_nodes(0.20), 0.05}};
      spec.runtime_log_mean = 7.6;  // e^7.6 ≈ 33 min
      spec.runtime_log_sigma = 1.5;
      spec.runtime_max_sec = 12.0 * 3600.0;
      spec.mem_bands = {{0.05, 0.30, 0.30},
                        {0.30, 0.75, 0.30},
                        {0.75, 1.00, 0.25},
                        {1.00, 2.00, 0.15}};
      spec.sensitivity_weights = {0.15, 0.45, 0.40};
      spec.arrival_rate_per_hour = 90.0;
      break;

    case WorkloadModel::kMixed:
      spec.name = "mixed";
      spec.node_buckets = {{1, 1, 0.30},
                           {2, 16, 0.40},
                           {17, frac_nodes(0.12), 0.23},
                           {frac_nodes(0.12) + 1, frac_nodes(0.40), 0.07}};
      spec.runtime_log_mean = 8.4;  // e^8.4 ≈ 1.2 h
      spec.runtime_log_sigma = 1.4;
      spec.mem_bands = {{0.02, 0.25, 0.45},
                        {0.25, 0.75, 0.32},
                        {0.75, 1.00, 0.15},
                        {1.00, 1.75, 0.08}};
      spec.sensitivity_weights = {0.35, 0.45, 0.20};
      spec.arrival_rate_per_hour = 55.0;
      break;
  }
  // Normalize buckets for small machines: the fraction-derived bounds can
  // collapse or invert when max_nodes is tiny (test-scale clusters).
  for (auto& bucket : spec.node_buckets) {
    bucket.lo = std::clamp(bucket.lo, 1, max_nodes);
    bucket.hi = std::clamp(bucket.hi, bucket.lo, max_nodes);
  }
  return spec;
}

Trace make_model_trace(WorkloadModel m, std::size_t jobs, std::uint64_t seed,
                       std::int32_t machine_nodes, Bytes reference_node_mem,
                       double target_load) {
  SyntheticSpec spec = model_spec(m, machine_nodes, reference_node_mem);
  spec.job_count = jobs;
  return generate_trace_with_load(spec, seed, machine_nodes, target_load);
}

std::unique_ptr<TraceSource> make_model_source(WorkloadModel m,
                                               std::size_t jobs,
                                               std::uint64_t seed,
                                               std::int32_t machine_nodes,
                                               Bytes reference_node_mem,
                                               double target_load) {
  SyntheticSpec spec = model_spec(m, machine_nodes, reference_node_mem);
  spec.job_count = jobs;
  return make_synthetic_source(spec, seed, machine_nodes, target_load);
}

}  // namespace dmsched
