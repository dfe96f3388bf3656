#include "workload/characterize.hpp"

#include <algorithm>
#include <set>

#include "common/assert.hpp"
#include "common/stats.hpp"

namespace dmsched {

TraceStats characterize(const Trace& trace, Bytes reference_node_mem,
                        std::int64_t machine_nodes) {
  TraceStats s;
  s.job_count = trace.size();
  if (trace.empty()) return s;
  s.span_hours = trace.span().hours();
  s.offered_load = trace.offered_load(machine_nodes);

  SampleStats nodes, runtime_h, mem_gib, accuracy;
  std::size_t above_half = 0;
  std::size_t above_full = 0;
  std::set<std::int32_t> users;
  for (const Job& j : trace.jobs()) {
    nodes.add(static_cast<double>(j.nodes));
    runtime_h.add(j.runtime.hours());
    mem_gib.add(j.mem_per_node.gib());
    accuracy.add(j.walltime > SimTime{0}
                     ? j.runtime.seconds() / j.walltime.seconds()
                     : 1.0);
    if (j.mem_per_node * 2 > reference_node_mem) ++above_half;
    if (j.mem_per_node > reference_node_mem) ++above_full;
    users.insert(j.user);
  }
  const auto n = static_cast<double>(trace.size());
  s.nodes_mean = nodes.mean();
  s.nodes_p50 = nodes.percentile(50);
  s.nodes_max = nodes.max();
  s.runtime_mean_hours = runtime_h.mean();
  s.runtime_p50_hours = runtime_h.percentile(50);
  s.estimate_accuracy_mean = accuracy.mean();
  s.mem_per_node_mean_gib = mem_gib.mean();
  s.mem_per_node_p50_gib = mem_gib.percentile(50);
  s.mem_per_node_p95_gib = mem_gib.percentile(95);
  s.frac_mem_above_half = static_cast<double>(above_half) / n;
  s.frac_mem_above_full = static_cast<double>(above_full) / n;
  s.distinct_users = static_cast<std::int32_t>(users.size());
  return s;
}

std::vector<double> memory_footprints_gib(const Trace& trace) {
  std::vector<double> v;
  v.reserve(trace.size());
  for (const Job& j : trace.jobs()) v.push_back(j.mem_per_node.gib());
  return v;
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> samples,
                                    std::size_t points) {
  DMSCHED_ASSERT(points >= 2, "empirical_cdf: need at least 2 points");
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  std::vector<CdfPoint> out;
  out.reserve(points);
  const std::size_t n = samples.size();
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    const auto idx = std::min(
        n - 1, static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5));
    out.push_back({samples[idx],
                   static_cast<double>(idx + 1) / static_cast<double>(n)});
  }
  return out;
}

}  // namespace dmsched
