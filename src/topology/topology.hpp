// Rack-scale memory topology: the static model of *where* memory lives.
//
// A machine is a set of racks, each owning its nodes plus an optional
// rack-local memory pool, with an optional cluster-global tier reachable
// from every rack at higher cost. `Topology` is the queryable form of that
// model (tier capacities, headroom against a counted state);
// `TopologySpec` reshapes a ClusterConfig along the two axes the
// provisioning studies care about (rack count, rack-vs-global capacity
// split). Default-constructed everything reproduces the flat pre-topology
// machine — one global pool, no rack tier — byte-for-byte.
//
// Layering: this is its own layer between cluster/ and memory/. It may
// include common/ and cluster/ only; memory/placement consults it for the
// policy vocabulary and the counted resource view, sched/ and core/ for
// tier headroom.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/config.hpp"

namespace dmsched {

/// The four places a byte of a job's footprint can be served from, in
/// increasing hop distance from the node touching it. The neighbor tier is
/// DOLMA-style distance-graded sharing: bytes drawn from *another* rack's
/// pool — physically the same pools as kRackPool, but one inter-rack hop
/// further from the consuming node, so priced between rack and global.
enum class MemoryTier : std::uint8_t {
  kLocal = 0,        ///< node-local DRAM (no penalty)
  kRackPool = 1,     ///< the rack's own disaggregated pool (one switch hop)
  kNeighborPool = 2, ///< a foreign rack's pool (one inter-rack hop more)
  kGlobalPool = 3,   ///< the cluster-global tier (multi-hop)
};

constexpr std::size_t kMemoryTierCount = 4;

/// Counted (rack-granular) view of free resources — either the live
/// cluster or a hypothetical future state inside a reservation profile.
///
/// Two totals ride along with the per-rack vectors: Σ`free_nodes` and
/// Σ`pool_free`. `snapshot` and `empty_state` set them, `apply_take` and
/// `release_take` update them from a plan's slices, so the placement
/// kernel's order-free test reads them in O(1). Code that writes the
/// vectors directly calls `recount()` afterwards.
struct ResourceState {
  std::vector<std::int32_t> free_nodes;  ///< per rack
  std::vector<Bytes> pool_free;          ///< per rack
  /// Free GPU devices per rack. Empty on GPU-less machines (the legacy
  /// shape) so existing states compare and copy byte-identically.
  std::vector<std::int64_t> free_gpus;
  Bytes global_free{};
  /// Free burst-buffer capacity (zero on machines without one).
  Bytes bb_free{};
  /// Σ free_nodes.
  std::int64_t free_nodes_total = 0;
  /// Σ pool_free, in bytes. 128 bits: ClusterConfig bounds no rack count or
  /// pool size.
  __int128 pool_free_total = 0;

  [[nodiscard]] std::int32_t total_free_nodes() const {
    return static_cast<std::int32_t>(free_nodes_total);
  }
  /// Set both totals from the per-rack vectors.
  void recount();
  /// Whether both totals equal the sums of the per-rack vectors.
  [[nodiscard]] bool totals_match() const;
  /// Free GPUs in rack `r`; 0 when the machine has none.
  [[nodiscard]] std::int64_t free_gpus_in(std::size_t r) const {
    return r < free_gpus.size() ? free_gpus[r] : 0;
  }
};

/// Current cluster state as a ResourceState.
[[nodiscard]] ResourceState snapshot(const Cluster& cluster);
/// An idle machine of the given shape.
[[nodiscard]] ResourceState empty_state(const ClusterConfig& config);
/// Whether no free count in `state` exceeds `empty_state(config)`'s: the
/// upper bound `release_take` does not check (a plan released twice breaks
/// it). Debug builds assert it where states are rebuilt from releases.
[[nodiscard]] bool within_machine(const ResourceState& state,
                                  const ClusterConfig& config);

/// Remaining capacity per memory tier — what a scheduler reads before
/// deciding whether a start would drain a tier others depend on.
struct TierHeadroom {
  std::int32_t free_nodes = 0;
  Bytes rack_pool_free{};      ///< Σ free bytes across all rack pools
  Bytes rack_pool_free_max{};  ///< free bytes in the best-provisioned rack
  Bytes global_free{};
  std::int64_t free_gpus = 0;  ///< Σ free GPU devices across all racks
  Bytes bb_free{};             ///< free burst-buffer capacity

  [[nodiscard]] Bytes pool_free_total() const {
    return rack_pool_free + global_free;
  }
};

/// The queryable rack-scale model of one machine.
///
/// Default-constructed as the degenerate flat topology: a single rack
/// spanning the whole (empty) cluster and a single global pool — the shape
/// every pre-topology config had, so a default Topology never changes
/// behaviour.
class Topology {
 public:
  Topology() : Topology(ClusterConfig{}) {}
  explicit Topology(ClusterConfig config);

  /// Σ rack pools.
  [[nodiscard]] Bytes rack_tier_capacity() const {
    return config_.pool_per_rack * config_.racks();
  }
  [[nodiscard]] Bytes global_tier_capacity() const {
    return config_.global_pool;
  }
  [[nodiscard]] bool has_rack_tier() const {
    return !config_.pool_per_rack.is_zero();
  }
  [[nodiscard]] bool has_global_tier() const {
    return !config_.global_pool.is_zero();
  }

  /// Remaining per-tier capacity in `state` (which must match this
  /// machine's rack shape).
  [[nodiscard]] TierHeadroom headroom(const ResourceState& state) const;

 private:
  ClusterConfig config_;
};

/// Reshape knobs for capacity-planning studies: how many racks, and how the
/// disaggregated capacity splits between the rack tier and the global tier.
/// Sentinels keep the published machine byte-identical.
struct TopologySpec {
  /// Target rack count. 0 = keep the published racking. Must divide the
  /// node count exactly; the rack tier's *total* bytes are preserved across
  /// re-racking.
  std::int32_t racks = 0;
  /// Fraction of the machine's total disaggregated capacity provisioned as
  /// rack-local pools (the rest forms the global tier). Negative = keep the
  /// published split; otherwise must lie in [0, 1].
  double rack_pool_frac = -1.0;

  [[nodiscard]] bool is_default() const {
    return racks == 0 && rack_pool_frac < 0.0;
  }
};

/// Apply a TopologySpec to a machine. Deterministic; throws InputError
/// naming `racks` or `rack_pool_frac`, with a teaching message, when the
/// spec is invalid for this machine or would silently produce a
/// zero-capacity tier (a requested tier whose per-pool size rounds to
/// nothing).
[[nodiscard]] ClusterConfig apply(const TopologySpec& spec,
                                  ClusterConfig config);

/// Collapse a machine to the system-wide provisioning ablation: one rack
/// spanning every node and all disaggregated bytes in the global tier.
/// Total capacity is preserved; only distances change.
[[nodiscard]] ClusterConfig flatten_to_global(ClusterConfig config);

/// Throw InputError naming `field` (the knob that did the shaping) if a
/// tier that exists on `published` has been scaled/reshaped to zero
/// capacity on `shaped` — the silent failure mode of aggressive pool_scale /
/// rack_pool_frac combinations.
void ensure_tiers_survive(const ClusterConfig& shaped,
                          const ClusterConfig& published, const char* field);

}  // namespace dmsched
