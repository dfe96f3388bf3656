// The live machine: node occupancy and pool ledgers.
//
// Cluster is purely mechanical — it validates and applies allocations and
// answers capacity queries. *Choosing* an allocation is the placement
// layer's job (src/memory/placement.hpp); *when* to start a job is the
// scheduler's job. This split lets every scheduler share one audited ledger.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/allocation.hpp"
#include "cluster/config.hpp"

namespace dmsched {

/// Mutable machine state with conservation invariants enforced on every
/// transition (see DESIGN.md §4).
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  // --- capacity queries ---------------------------------------------------
  [[nodiscard]] std::int32_t free_nodes_total() const { return free_total_; }
  [[nodiscard]] std::int32_t free_nodes_in_rack(RackId r) const;
  /// Remaining capacity of rack `r`'s pool.
  [[nodiscard]] Bytes pool_free(RackId r) const;
  /// Remaining capacity of the global pool.
  [[nodiscard]] Bytes global_pool_free() const;
  /// Busy-node count (total - free).
  [[nodiscard]] std::int32_t busy_nodes() const {
    return config_.total_nodes - free_total_;
  }
  /// Total bytes currently drawn across all rack pools.
  [[nodiscard]] Bytes rack_pools_used() const;
  /// Bytes currently drawn from rack `r`'s pool.
  [[nodiscard]] Bytes pool_used(RackId r) const;
  /// Bytes drawn in the single busiest rack pool right now — the
  /// rack-imbalance signal topology studies report.
  [[nodiscard]] Bytes busiest_rack_pool_used() const;
  /// Bytes currently drawn from the global pool.
  [[nodiscard]] Bytes global_pool_used() const { return global_used_; }
  /// Free GPU devices in rack `r`'s pool (0 on GPU-less machines).
  [[nodiscard]] std::int64_t free_gpus_in_rack(RackId r) const;
  /// GPU devices currently held across the machine.
  [[nodiscard]] std::int64_t gpus_used_total() const;
  /// Remaining burst-buffer capacity.
  [[nodiscard]] Bytes bb_free() const { return config_.bb_capacity - bb_used_; }
  /// Burst-buffer bytes currently reserved.
  [[nodiscard]] Bytes bb_used() const { return bb_used_; }

  /// The `count` lowest-numbered free nodes in rack `r` (deterministic
  /// placement); fewer are returned if the rack has fewer free.
  [[nodiscard]] std::vector<NodeId> free_nodes_in_rack_lowest(
      RackId r, std::int32_t count) const;

  // --- transitions ----------------------------------------------------------
  /// Apply an allocation. Aborts on any invariant violation (a scheduler
  /// bug, not a runtime condition — plans must be validated before commit).
  void commit(const Allocation& alloc);

  /// Release a job's allocation and return it. Aborts if not running.
  Allocation release(JobId job);

  /// Rewrite a running job's pool draws in place — the migration engine's
  /// transition. The new draw set must cover exactly the same far total as
  /// the old one (migration moves bytes, it never changes the footprint),
  /// fit the target pools' remaining capacity (with the job's old draws
  /// released), and satisfy the same neighbor-marking consistency commit
  /// enforces. Node occupancy, GPUs, and the burst buffer are untouched.
  void retier(JobId job, std::vector<PoolDraw> new_draws);

  /// Allocation of a running job, if any.
  [[nodiscard]] const Allocation* find_allocation(JobId job) const;

  /// Jobs currently holding resources.
  [[nodiscard]] std::vector<JobId> running_jobs() const;

  /// Recompute all ledgers from the occupancy map and assert they match the
  /// incremental ones. O(nodes + allocations); used by tests and available
  /// behind a flag in long experiments.
  void audit() const;

 private:
  ClusterConfig config_;
  std::vector<JobId> node_occupant_;       // per node
  std::vector<std::int32_t> rack_free_;    // per rack
  std::vector<Bytes> pool_used_;           // per rack
  std::vector<Bytes> neighbor_used_;       // per rack: foreign-job subset
  std::vector<std::int64_t> gpu_used_;     // per rack
  Bytes global_used_{};
  Bytes bb_used_{};
  std::int32_t free_total_ = 0;
  std::unordered_map<JobId, Allocation> allocations_;
};

}  // namespace dmsched
