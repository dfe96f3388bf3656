// Live migration of pooled bytes between memory tiers.
//
// DOLMA-style object migration (PAPERS.md): tiering decisions react to
// contention instead of being fixed at allocation time. A periodic check
// scans the running jobs and proposes *demotions* (rack-tier bytes of a
// contended pool move to the global tier) and *promotions* (global-tier
// bytes move back into a hosting rack's pool once it has headroom). The
// engine applies each move through `Cluster::retier` and re-prices the
// job's slowdown.
//
// Layering: migration/ sits between topology/ and memory/. It may include
// common/, cluster/, and topology/ — but NOT memory/: pricing the move
// (the dilation change) is the core engine's job via memory/slowdown.
//
// Every knob is behind a 0-sentinel: a default-constructed MigrationPolicy
// schedules no events and touches nothing, so published machines stay
// byte-identical with migration off.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace dmsched {

/// Policy knobs for the migration engine. Defaults are the no-op sentinel.
struct MigrationPolicy {
  /// How often the engine scans running jobs for moves. Zero (the default)
  /// disables migration entirely — no events are ever scheduled.
  SimTime check_interval{};
  /// A rack pool whose used fraction exceeds this is *contended*: far bytes
  /// it serves become demotion candidates (rack → global).
  double demote_threshold = 0.85;
  /// Hysteresis band: promotion (global → rack) requires the target pool's
  /// used fraction to sit below `demote_threshold - promote_headroom`, so a
  /// pool hovering at the threshold never flaps demote/promote.
  double promote_headroom = 0.25;
  /// Migration bandwidth in GiB/s. Zero (the default) means moves apply
  /// instantaneously at the check event; positive values delay the apply by
  /// bytes/bandwidth, modelling the copy.
  double bandwidth_gibps = 0.0;

  [[nodiscard]] bool enabled() const { return check_interval > SimTime{}; }
  /// Throws InputError naming the first bad field: the demote
  /// threshold must lie in (0, 1], the promote headroom in
  /// [0, demote_threshold), the bandwidth be finite and >= 0.
  void validate() const;
  /// Copy latency for `bytes` under the bandwidth knob (zero if unlimited).
  [[nodiscard]] SimTime latency_for(Bytes bytes) const;
};

enum class MigrationKind : std::uint8_t {
  kDemote,   ///< rack-tier bytes → global tier (pool contended)
  kPromote,  ///< global-tier bytes → a hosting rack's pool (headroom back)
};

/// One proposed move of a running job's far bytes between tiers.
struct MigrationDecision {
  JobId job = kInvalidJobId;
  MigrationKind kind = MigrationKind::kDemote;
  /// The rack-tier end of the move: source pool for a demotion, target pool
  /// for a promotion.
  RackId rack = 0;
  /// Whether that rack-tier end is a neighbor draw (rack hosts none of the
  /// job's nodes) — must match the draw being moved / created.
  bool neighbor = false;
  Bytes bytes{};
};

/// The scanner: proposes moves from the cluster ledger. Stateless except
/// for in-flight tracking (a job with a bandwidth-delayed move pending is
/// skipped until the move lands, so moves never interleave per job).
class MigrationEngine {
 public:
  MigrationEngine() = default;
  /// Throws InputError naming the first bad field of `policy`
  /// (MigrationPolicy::validate).
  explicit MigrationEngine(MigrationPolicy policy) : policy_(policy) {
    policy_.validate();
  }

  [[nodiscard]] const MigrationPolicy& policy() const { return policy_; }

  /// Scan `running` (caller supplies a deterministic order — the engine
  /// passes the running set in start order) and propose at most one move
  /// per job. Demotions are proposed before promotions for the same scan so
  /// a contended pool is relieved before anything is pulled back in.
  [[nodiscard]] std::vector<MigrationDecision> plan(
      const Cluster& cluster, const std::vector<JobId>& running) const;

  /// Mark a job's move as dispatched / landed / abandoned.
  void on_dispatch(JobId id) { in_flight_.insert(id); }
  void on_applied(JobId id) { in_flight_.erase(id); }
  void on_job_finished(JobId id) { in_flight_.erase(id); }
  [[nodiscard]] bool in_flight(JobId id) const {
    return in_flight_.contains(id);
  }

 private:
  MigrationPolicy policy_;
  std::unordered_set<JobId> in_flight_;
};

/// The draw rewrite a decision implies, in canonical order (hosting-rack
/// draws by rack, neighbor draws by rack, the global draw last). The result
/// covers exactly the same far total — ready for `Cluster::retier`.
[[nodiscard]] std::vector<PoolDraw> rewrite_draws(
    const Allocation& alloc, const MigrationDecision& decision);

}  // namespace dmsched
