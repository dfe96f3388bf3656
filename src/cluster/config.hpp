// Static description of the simulated machine.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace dmsched {

/// Node index within the cluster (0 .. total_nodes-1, rack-major).
using NodeId = std::int32_t;
/// Rack index (0 .. racks-1).
using RackId = std::int32_t;
/// Sentinel rack id meaning "the cluster-global pool".
constexpr RackId kGlobalPoolRack = -1;

/// Machine shape: homogeneous nodes in equal racks, an optional
/// disaggregated memory pool per rack, and an optional global pool.
struct ClusterConfig {
  std::string name = "cluster";
  std::int32_t total_nodes = 1024;
  std::int32_t nodes_per_rack = 64;
  /// Local (direct-attached) memory per node.
  Bytes local_mem_per_node = gib(std::int64_t{256});
  /// Disaggregated pool capacity per rack (0 = no rack pools).
  Bytes pool_per_rack{};
  /// Cluster-global pool capacity (0 = none). Models a far memory tier
  /// reachable from every rack at higher cost.
  Bytes global_pool{};
  /// Accelerators provisioned per node (0 = no GPUs). GPUs are rack-pooled
  /// (multi-instance / fabric-attached): rack `r` owns
  /// `gpus_per_node * rack_size(r)` devices shared among its nodes, so a job
  /// whose per-node GPU demand exceeds the provisioned ratio contends with
  /// its rack neighbours instead of being flatly infeasible.
  std::int32_t gpus_per_node = 0;
  /// Cluster-global burst-buffer capacity (0 = none). Jobs reserve staging
  /// space for their whole runtime.
  Bytes bb_capacity{};

  [[nodiscard]] std::int32_t racks() const {
    return (total_nodes + nodes_per_rack - 1) / nodes_per_rack;
  }
  [[nodiscard]] RackId rack_of(NodeId node) const {
    return node / nodes_per_rack;
  }
  /// Nodes in rack `r` (the last rack may be partial).
  [[nodiscard]] std::int32_t rack_size(RackId r) const {
    const std::int32_t first = r * nodes_per_rack;
    const std::int32_t remaining = total_nodes - first;
    return remaining < nodes_per_rack ? remaining : nodes_per_rack;
  }
  /// Total disaggregated capacity (all rack pools + global pool).
  [[nodiscard]] Bytes total_pool() const {
    return pool_per_rack * racks() + global_pool;
  }
  /// Total memory (local + pools) — capacity comparisons across configs.
  [[nodiscard]] Bytes total_memory() const {
    return local_mem_per_node * total_nodes + total_pool();
  }
  /// GPU devices owned by rack `r` (the last rack may be partial).
  [[nodiscard]] std::int64_t rack_gpu_capacity(RackId r) const {
    return static_cast<std::int64_t>(gpus_per_node) * rack_size(r);
  }
  /// GPU devices across the whole machine.
  [[nodiscard]] std::int64_t total_gpus() const {
    return static_cast<std::int64_t>(gpus_per_node) * total_nodes;
  }
  /// True when the machine provisions any GPUs.
  [[nodiscard]] bool has_gpus() const { return gpus_per_node > 0; }
  /// True when the machine provisions a burst buffer.
  [[nodiscard]] bool has_burst_buffer() const { return !bb_capacity.is_zero(); }
  /// Throw InputError naming the first degenerate field.
  void validate() const;
};

}  // namespace dmsched
