// Shared test fixtures: tiny machines and hand-built jobs with readable
// construction syntax.
#pragma once

#include <vector>

#include "cluster/config.hpp"
#include "workload/job.hpp"
#include "workload/trace.hpp"

namespace dmsched::testing {

/// Fluent job builder: `job(0).nodes(4).mem_gib(64).runtime_h(2).at_h(1)`.
class JobBuilder {
 public:
  explicit JobBuilder(JobId id) { job_.id = id; }

  JobBuilder& at(SimTime t) {
    job_.submit = t;
    return *this;
  }
  JobBuilder& at_h(double h) { return at(seconds(h * 3600.0)); }
  JobBuilder& nodes(std::int32_t n) {
    job_.nodes = n;
    return *this;
  }
  JobBuilder& mem_gib(double g) {
    job_.mem_per_node = gib(g);
    return *this;
  }
  JobBuilder& runtime(SimTime t) {
    job_.runtime = t;
    if (job_.walltime < t) job_.walltime = t;
    return *this;
  }
  JobBuilder& runtime_h(double h) { return runtime(seconds(h * 3600.0)); }
  JobBuilder& walltime(SimTime t) {
    job_.walltime = t;
    return *this;
  }
  JobBuilder& walltime_h(double h) { return walltime(seconds(h * 3600.0)); }
  JobBuilder& sensitivity(MemSensitivity s) {
    job_.sensitivity = s;
    return *this;
  }
  JobBuilder& user(std::int32_t u) {
    job_.user = u;
    return *this;
  }
  JobBuilder& gpus(std::int32_t per_node) {
    job_.gpus_per_node = per_node;
    return *this;
  }
  JobBuilder& bb_gib(double g) {
    job_.bb_bytes = gib(g);
    return *this;
  }

  /// Finalize (defaults: 1 node, 1 GiB, 1 h runtime == walltime, t=0).
  [[nodiscard]] Job build() const {
    Job j = job_;
    if (j.nodes <= 0) j.nodes = 1;
    if (j.mem_per_node.is_zero()) j.mem_per_node = gib(std::int64_t{1});
    if (j.runtime <= SimTime{0}) j.runtime = hours(1);
    if (j.walltime < j.runtime) j.walltime = j.runtime;
    return j;
  }
  // NOLINTNEXTLINE(google-explicit-constructor): test sugar
  operator Job() const { return build(); }

 private:
  Job job_;
};

inline JobBuilder job(JobId id) { return JobBuilder(id); }

/// A trace from builders, already sorted/re-id'd.
inline Trace trace_of(std::vector<Job> jobs, std::string name = "test") {
  return Trace::make(std::move(jobs), std::move(name));
}

/// One-line machine builder: "N nodes, M GiB local, pool P (per rack),
/// G global". Racks of 4 nodes (the last may be partial) so placement paths
/// see multiple racks even on small machines.
inline ClusterConfig machine(std::int32_t nodes, double local_gib,
                             double rack_pool_gib = 0.0,
                             double global_pool_gib = 0.0) {
  ClusterConfig c;
  c.name = "test";
  c.total_nodes = nodes;
  c.nodes_per_rack = 4;
  c.local_mem_per_node = gib(local_gib);
  c.pool_per_rack = gib(rack_pool_gib);
  c.global_pool = gib(global_pool_gib);
  return c;
}

/// `c` with every rack `k` times as deep and every pool `k` times as large.
/// The rack count and node-local memory stay, and the placement kernel
/// reads no other capacity, so it plans exactly as on `c`. A profile over
/// `c`'s states that declares this machine may take releases of jobs
/// planned on an idle `c` (the extra capacity is busy with them) without
/// freeing more than its machine has.
inline ClusterConfig deepened(ClusterConfig c, std::int32_t k) {
  c.total_nodes *= k;
  c.nodes_per_rack *= k;
  c.pool_per_rack = c.pool_per_rack * k;
  c.global_pool = c.global_pool * k;
  return c;
}

/// A small machine: 4 racks × 4 nodes, 64 GiB local, with optional pools.
inline ClusterConfig tiny_cluster(Bytes pool_per_rack = Bytes{0},
                                  Bytes global_pool = Bytes{0}) {
  ClusterConfig c = machine(16, 64.0);
  c.name = "tiny";
  c.pool_per_rack = pool_per_rack;
  c.global_pool = global_pool;
  return c;
}

}  // namespace dmsched::testing
