// Conservative backfilling: every queued job gets a reservation.
#pragma once

#include <cstdint>

#include "sched/profile.hpp"
#include "sched/scheduler.hpp"

namespace dmsched {

/// Conservative backfilling over the full 2-D resource profile: each queued
/// job (up to a window) receives the earliest reservation that delays no
/// previously reserved job; jobs whose reservation is "now" start.
///
/// Reservations persist across passes as holds in an incrementally synced
/// FreeProfile. On a clean sync (timeline version unchanged, no breakpoint
/// crossed now) the previous pass's reservations are provably what a full
/// recompute would reproduce, so only jobs that arrived since are fitted —
/// each behind the retained holds. Any resource movement dirties the sync
/// and the pass recomputes every reservation from scratch (the no-compression
/// variant with implicit compression: a completion can only move
/// reservations earlier, and the rebuild discovers that).
class ConservativeScheduler final : public Scheduler {
 public:
  /// How many queued jobs receive reservations per pass; beyond it the pass
  /// stops (O(kWindow · breakpoints · racks) per pass).
  static constexpr std::size_t kWindow = 128;

  [[nodiscard]] const char* name() const override { return "conservative"; }
  [[nodiscard]] const SchedulerStats* stats() const override {
    return &stats_;
  }
  void schedule(SchedContext& ctx) override;

 private:
  SchedulerStats stats_;

  /// Reservation profile carried across passes (holds = reservations).
  FreeProfile profile_;
  bool cache_valid_ = false;
  std::uint64_t tail_epoch_ = 0;
  SimTime last_now_{};
  /// Queued jobs holding a reservation (window slots consumed). Only
  /// meaningful while cache_valid_ — a start or completion forces a full
  /// recount anyway via the dirty sync.
  std::size_t reserved_ = 0;
};

}  // namespace dmsched
