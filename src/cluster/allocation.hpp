// What a running job holds: nodes plus memory drawn from pools.
#pragma once

#include <vector>

#include "cluster/config.hpp"
#include "common/units.hpp"
#include "workload/job.hpp"

namespace dmsched {

/// Bytes drawn from one pool (a rack pool, or the global pool when
/// `rack == kGlobalPoolRack`).
struct PoolDraw {
  RackId rack = kGlobalPoolRack;
  Bytes bytes{};
  /// True when `rack` hosts none of the job's nodes — a distance-graded
  /// *neighbor* draw (MemoryTier::kNeighborPool). Only the shared-neighbors
  /// routing produces these; Cluster::commit still aborts on an unmarked
  /// foreign draw, so legacy strict mode is unchanged.
  bool neighbor = false;
};

/// A concrete resource grant for one job.
///
/// Invariants (checked by Cluster::commit):
///  - `nodes` are distinct and free;
///  - `local_per_node <= cluster local capacity`;
///  - Σ draws == far_per_node · |nodes|;
///  - each rack draw's rack hosts at least one allocated node, *unless* the
///    draw is neighbor-marked — then the rack must host none (the marking
///    and the hosting set must agree exactly).
struct Allocation {
  JobId job = kInvalidJobId;
  std::vector<NodeId> nodes;
  /// Bytes of the job's per-node footprint served by node-local memory.
  Bytes local_per_node{};
  /// Bytes per node served from disaggregated pools (the deficit).
  Bytes far_per_node{};
  /// Where the far bytes come from.
  std::vector<PoolDraw> draws;
  /// GPU devices held per allocated node (drawn from the hosting racks'
  /// pools; always equals the job's request — GPUs have no far tier).
  std::int32_t gpus_per_node = 0;
  /// Job-global burst-buffer reservation.
  Bytes bb_bytes{};

  /// Total far bytes across the job.
  [[nodiscard]] Bytes far_total() const {
    return far_per_node * static_cast<std::int64_t>(nodes.size());
  }
  /// Total footprint across the job.
  [[nodiscard]] Bytes mem_total() const {
    return (local_per_node + far_per_node) *
           static_cast<std::int64_t>(nodes.size());
  }
  /// Far bytes drawn from the job's *own* racks' pools (hosting racks).
  [[nodiscard]] Bytes rack_draw_total() const {
    Bytes total{};
    for (const auto& d : draws) {
      if (d.rack != kGlobalPoolRack && !d.neighbor) total += d.bytes;
    }
    return total;
  }
  /// Far bytes drawn from foreign racks' pools (neighbor-marked draws).
  [[nodiscard]] Bytes neighbor_draw_total() const {
    Bytes total{};
    for (const auto& d : draws) {
      if (d.neighbor) total += d.bytes;
    }
    return total;
  }
  /// GPU devices held in rack `r` (its nodes there x per-node count).
  [[nodiscard]] std::int64_t gpus_in_rack(const ClusterConfig& config,
                                          RackId r) const {
    std::int64_t hosted = 0;
    for (const NodeId n : nodes) {
      if (config.rack_of(n) == r) ++hosted;
    }
    return hosted * gpus_per_node;
  }
  /// Far bytes drawn from the global pool.
  [[nodiscard]] Bytes global_draw_total() const {
    Bytes total{};
    for (const auto& d : draws) {
      if (d.rack == kGlobalPoolRack) total += d.bytes;
    }
    return total;
  }
};

}  // namespace dmsched
