// The paper's contribution: disaggregation-aware EASY backfilling, plus the
// adaptive defer-vs-dilate variant.
//
// Differences from the memory-unaware baseline (sched/easy.cpp):
//  1. The head job's reservation is computed over the FULL 2-D resource
//     profile (free nodes AND free pool bytes per rack/global), so a
//     memory-blocked head actually gets a protected start time.
//  2. A backfill candidate that cannot be proven to finish before the head's
//     reservation is accepted only if re-fitting the head *with the
//     candidate's resources held* does not delay the head. This check is in
//     the same 2-D space, so backfills can no longer starve the head of
//     pool bytes (the baseline's failure mode). The what-if stops as soon
//     as its answer is known: each reservation's re-fit sweeps no start
//     later than its baseline start, and the re-fit of the reserved prefix
//     stops at the first reservation that starts or finishes later. With
//     one reservation and no adaptive mode it is one kernel call at the
//     reservation's start (head_keeps_baseline).
//  3. Optionally (adaptive mode), every start decision minimizes *estimated
//     completion*: starting now with expensive global-pool spillage is
//     weighed against reserving a later start fed by cheaper rack-local
//     pool. This is the defer-vs-dilate tradeoff.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/resources.hpp"
#include "sched/profile.hpp"
#include "sched/scheduler.hpp"

namespace dmsched {

/// Order in which backfill candidates are examined.
enum class BackfillOrder {
  kQueueOrder,     ///< queue-policy order (classic)
  kShortestFirst,  ///< shortest requested walltime first
  kBestMemFit,     ///< largest per-node memory deficit first
};

[[nodiscard]] const char* to_string(BackfillOrder order);

/// Tuning for MemAwareEasyScheduler.
struct MemAwareOptions {
  BackfillOrder order = BackfillOrder::kQueueOrder;
  /// EASY-K: how many blocked queue-front jobs receive protected
  /// reservations. 1 is classic EASY (head only); larger values trade
  /// backfill aggressiveness for fairness to the queue front, interpolating
  /// toward conservative backfilling.
  std::size_t reservation_depth = 1;
  /// Enable defer-vs-dilate: choose the start (now vs reserved-later, with
  /// the dilation each option implies) minimizing estimated completion.
  bool adaptive = false;
  /// Deferral must win by at least this margin (seconds) — hysteresis so
  /// marginal predictions do not hold resources idle.
  double adaptive_margin_sec = 0.0;
  /// Tier-headroom shield: a *backfill* may not push a pool tier's remaining
  /// free capacity below this fraction of the tier (rack tier in aggregate,
  /// global tier separately) — the headroom is read from the topology model
  /// (Topology::headroom) and kept for the reserved queue front, which
  /// starts regardless. 0 (default) disables the shield.
  double reserve_headroom = 0.0;
  /// Which optional resource axes this scheduler *plans* with. The default
  /// is the paper's memory-only policy (plans see nodes + memory, blind to
  /// GPUs and burst buffer); ResourceAxes::all() instantiates
  /// resource-aware-EASY from the same template. On machines that provision
  /// an axis the policy is blind to, every start is revalidated against the
  /// full cluster ledger first — plans may be wrong, starts never are. On
  /// legacy machines (no GPUs, no burst buffer) all instantiations are
  /// byte-identical.
  ResourceAxes axes = ResourceAxes::memory_only();
};

/// Memory-aware EASY backfilling (see file header).
///
/// Incremental passes: the reservation profile and the protected baseline
/// persist across passes. When the context's availability timeline reports
/// no resource movement since a converged pass (clean profile sync), phase 1
/// (head starts) and phase 2 (baseline reservations) are skipped — both are
/// provably byte-identical to a recompute — and only the backfill-candidate
/// loop runs. With one reservation that loop judges only the jobs queued
/// since the converged pass: the candidates it judged would be passed over
/// again (proof at schedule()). The cache arms itself only in the plainest
/// configuration (queue-order candidates, non-adaptive, full reservation
/// window, every reservation strictly in the future): those are the
/// conditions under which the skip is a proof, not a heuristic. A full pass
/// fits the blocked head once: phase 1's last fit is its reservation.
class MemAwareEasyScheduler final : public Scheduler {
 public:
  /// One protected reservation of the queue front.
  struct Reservation {
    JobId id = kInvalidJobId;
    SimTime start{};
    SimTime finish_bound{};
  };

  /// Max backfill candidates examined per pass (each costs one profile
  /// sweep in the worst case).
  static constexpr std::size_t kBackfillWindow = 256;

  explicit MemAwareEasyScheduler(MemAwareOptions options = {});

  [[nodiscard]] const char* name() const override {
    if (options_.adaptive) return "adaptive";
    return options_.axes.all_on() ? "resource-easy" : "mem-easy";
  }
  [[nodiscard]] bool memory_aware() const override { return true; }
  [[nodiscard]] const SchedulerStats* stats() const override {
    return &stats_;
  }
  void schedule(SchedContext& ctx) override;

 private:
  MemAwareOptions options_;
  SchedulerStats stats_;

  /// Release profile carried across passes (holds only transient).
  FreeProfile profile_;
  bool cache_valid_ = false;
  SimTime last_now_{};
  /// The reserved queue prefix and its baseline, as of the cached pass.
  std::vector<JobId> reserved_jobs_;
  std::vector<Reservation> baseline_;
  /// Backfill candidates judged (and passed over) up to the cached pass,
  /// and the queue token taken after it: what a depth-1 warm pass skips.
  std::size_t judged_ = 0;
  std::uint64_t tail_epoch_ = 0;
};

// The backfill what-if, as the scheduler runs it (exposed for tests).

/// Reservations for `jobs` in order, each one's hold added to `profile` so
/// later reservations respect it. The holds stay; the caller rolls back.
[[nodiscard]] std::vector<MemAwareEasyScheduler::Reservation>
place_reservations(FreeProfile& profile, std::span<const JobId> jobs,
                   const SchedContext& ctx, const MemAwareOptions& opts,
                   const PlacementPolicy& planning);

/// Re-fit the reserved jobs in order on `profile` (which holds the
/// candidate) and report whether each keeps its baseline start and finish
/// bound. Each sweep stops at its job's baseline start and the re-fit
/// stops at the first delayed reservation: past either point the verdict
/// is "delayed", whatever the rest would compute. The re-fit holds stay in
/// `profile`; the caller rolls them back.
[[nodiscard]] bool keeps_baseline(
    FreeProfile& profile,
    const std::vector<MemAwareEasyScheduler::Reservation>& baseline,
    const SchedContext& ctx, const MemAwareOptions& opts,
    const PlacementPolicy& planning);

/// keeps_baseline for one reservation `base` in non-adaptive mode, in one
/// kernel call: whether the head still starts at `base.start`, by its
/// finish bound, once a candidate holds `take` from now() past that start.
/// `profile` must not hold the candidate and must never decrease after
/// now() (mem-easy's phase-3 profile: releases, and holds that start at
/// now()). `state` and `plan` are caller-owned scratch.
[[nodiscard]] bool head_keeps_baseline(
    const FreeProfile& profile, const MemAwareEasyScheduler::Reservation& base,
    const TakePlan& take, const SchedContext& ctx,
    const PlacementPolicy& planning, ResourceState& state, TakePlan& plan);

/// head_keeps_baseline's first test without the candidate's plan: whether
/// `totals_admit` admits `head` on `at_start` less any plan compute_take
/// builds for `cand` under `planning`. `at_start` is the row at the head's
/// baseline start. When this is false, head_keeps_baseline is false for
/// every such take, so phase 3 rejects a candidate that ends past that
/// start without planning it.
[[nodiscard]] bool head_totals_admit(const ResourceState& at_start,
                                     const ClusterConfig& config,
                                     const Job& head, const Job& cand,
                                     PlacementPolicy planning);

}  // namespace dmsched
