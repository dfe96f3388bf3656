// Placement: turning "job J may start" into concrete nodes and pool draws.
//
// One kernel (`compute_take`) answers both questions every layer asks:
//  - the cluster-facing planner materializes it into an Allocation;
//  - the reservation profile applies it to *future* resource states.
// Sharing the kernel guarantees that "the profile says J fits at time T"
// and "the planner can start J at time T" never diverge.
//
// The vocabulary it executes — NodeSelection, PoolRouting, PlacementPolicy,
// the named PlacementStrategy presets — and the counted ResourceState view
// live one layer down in topology/ (policies are statements about rack
// distances and tiers; this file is the allocation mechanics).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "topology/placement_policy.hpp"
#include "topology/topology.hpp"
#include "workload/job.hpp"

namespace dmsched {

/// Per-rack slice of a planned start.
struct RackTake {
  RackId rack = 0;
  std::int32_t nodes = 0;        ///< nodes taken in this rack
  Bytes rack_pool_bytes{};       ///< drawn from this rack's pool
  Bytes global_pool_bytes{};     ///< drawn from the global pool for these nodes
  std::int64_t gpus = 0;         ///< devices drawn from this rack's GPU pool
  /// Drawn from this rack's pool for a job hosting *no* node here — a
  /// distance-graded neighbor draw (shared-neighbors routing only). Such a
  /// slice may carry `nodes == 0`; it still debits this rack's pool.
  Bytes neighbor_pool_bytes{};

  bool operator==(const RackTake&) const = default;
};

/// A start decision in counted form (no node ids yet).
struct TakePlan {
  Bytes local_per_node{};
  Bytes far_per_node{};
  /// Burst-buffer reservation (cluster-global, like the global pool).
  Bytes bb_bytes{};
  std::vector<RackTake> takes;

  bool operator==(const TakePlan&) const = default;

  [[nodiscard]] Bytes global_total() const;
  [[nodiscard]] Bytes rack_pool_total() const;
  [[nodiscard]] Bytes neighbor_pool_total() const;
  /// Everything drawn from the rack *tier* (own-rack + neighbor draws) —
  /// what rack-pool headroom shields must count.
  [[nodiscard]] Bytes rack_tier_total() const {
    return rack_pool_total() + neighbor_pool_total();
  }
  [[nodiscard]] std::int32_t node_total() const;
};

/// compute_take's O(1) reject, read from the totals `state` keeps. False
/// when the burst buffer is short (a policy that plans it), when fewer
/// nodes are free than the job asks for, or when a deficit job's far bytes
/// (per-node deficit × nodes) exceed the free bytes of the tiers `policy`
/// may draw from: Σ rack pools unless global-only, plus the global tier
/// unless rack-only. Each is necessary for compute_take to admit the job,
/// so a caller may skip the kernel when this is false; compute_take tests
/// it first itself. When it is true, only GPU plans and the rack-only and
/// rack-then-global deficit jobs still need a per-rack pass (greedy_fits,
/// placement.cpp, has the proof).
[[nodiscard]] inline bool totals_admit(const ResourceState& state,
                                       const ClusterConfig& config,
                                       const Job& job, PlacementPolicy policy) {
  if (policy.axes.burst_buffer && job.bb_bytes > Bytes{0} &&
      state.bb_free < job.bb_bytes) {
    return false;
  }
  if (state.free_nodes_total < job.nodes) return false;
  const Bytes d =
      job.mem_per_node - min(job.mem_per_node, config.local_mem_per_node);
  if (d.is_zero()) return true;
  __int128 tier_bytes = policy.routing != PoolRouting::kRackOnly
                            ? state.global_free.count()
                            : 0;
  if (policy.routing != PoolRouting::kGlobalOnly) {
    tier_bytes += state.pool_free_total;
  }
  return tier_bytes >= static_cast<__int128>(d.count()) * job.nodes;
}

/// Plan a start of `job` against `state` into caller-owned `plan`. Returns
/// false when the job cannot start (insufficient burst buffer, nodes or
/// pool capacity under `policy`); `plan` then holds no usable plan. That
/// answer is decided by an order-free test before any rack is ordered:
/// `totals_admit` in O(1), then one per-rack pass only for GPU plans and
/// for rack-only and rack-then-global deficit jobs. A rejected probe never
/// orders racks, and once the test passes, building the plan cannot fail.
/// The builder orders and visits only the racks with a free node: every
/// greedy step skips a rack without one, so the plan is the same.
/// Debug builds recount `state`'s totals and assert they match. Every
/// field of `plan` is overwritten, and `plan.takes` keeps its capacity, so
/// one plan reused across probes allocates only when a plan outgrows every
/// earlier one.
[[nodiscard]] bool compute_take(const ResourceState& state,
                                const ClusterConfig& config, const Job& job,
                                PlacementPolicy policy, TakePlan& plan);

/// The same kernel returning a fresh plan, or nullopt when the job cannot
/// start: for cold callers that keep no scratch plan.
[[nodiscard]] std::optional<TakePlan> compute_take(const ResourceState& state,
                                                   const ClusterConfig& config,
                                                   const Job& job,
                                                   PlacementPolicy policy);

/// Whether compute_take still returns `plan` once `delta` is folded in, so
/// a caller can reuse a plan across states instead of rebuilding it.
/// `plan` is what compute_take returned on `built_on`, and `after` is
/// `built_on` with `delta` and possibly other deltas folded. True when the
/// delta touches no rack the greedy read on `built_on` (those keyed at or
/// before the rack of the plan's last slice), every rack it touches still
/// orders after that rack on `after`, and it moves no global bytes a
/// deficit job's global budget reads and no burst-buffer bytes the plan
/// holds. So compute_take returns `plan` on a later state when this held
/// for every delta folded since `built_on`, each checked against the state
/// just after its own fold. Always false under kRackNeighborGlobal, whose
/// stage 2 reads every rack.
[[nodiscard]] bool keeps_plan(const ResourceState& built_on,
                              const TakePlan& plan, PlacementPolicy policy,
                              const TakePlan& delta,
                              const ResourceState& after);

/// True when `plan` could be subtracted from `state` without going
/// negative (non-mutating feasibility probe for interval fitting).
[[nodiscard]] bool can_apply(const ResourceState& state, const TakePlan& plan);

/// Subtract a plan's resources from `state` (must fit; asserts otherwise),
/// keeping its totals.
void apply_take(ResourceState& state, const TakePlan& plan);
/// Return a plan's resources to `state`, keeping its totals.
void release_take(ResourceState& state, const TakePlan& plan);

/// True when `job` could start on an *empty* machine of this shape ("runnable
/// at all"). The engine's admission keeps its own empty state and scratch
/// plan instead, so it allocates nothing per submit.
[[nodiscard]] bool feasible_on_empty(const ClusterConfig& config,
                                     const Job& job, PlacementPolicy policy);

/// Materialize a counted plan into concrete node ids on the live cluster.
/// The plan must have been computed against `snapshot(cluster)`.
[[nodiscard]] Allocation materialize(const Cluster& cluster, const Job& job,
                                     const TakePlan& plan);

/// The inverse of materialize: the counted resource view of a concrete
/// allocation (nodes grouped per rack, pool draws attached). This is the
/// plan the engine's availability timeline tracks for a started job — and
/// the plan a scheduler must hold in its profile for a job it just started,
/// so profile and ledger can never disagree about rack distribution.
[[nodiscard]] TakePlan take_from(const Allocation& alloc,
                                 const ClusterConfig& config);

/// One-call convenience: plan and materialize a start for `job` now.
[[nodiscard]] std::optional<Allocation> plan_start(const Cluster& cluster,
                                                   const Job& job,
                                                   PlacementPolicy policy);

}  // namespace dmsched
