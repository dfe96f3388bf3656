// Conservative backfilling: every queued job gets a reservation.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

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
/// recompute would reproduce, so only jobs that arrived since are fitted,
/// each behind the retained holds. Otherwise the pass replans every
/// reservation in queue order, but keeps the last pass's answers that
/// nothing could have moved. When the running set changed only by
/// completions and the last pass's own starts, every profile row at or
/// after a candidate's gate (the latest end among those completions and
/// the own starts placed after it) is the row the last pass read; while
/// every earlier reservation stands, a reservation at or after its gate
/// stands too unless a start before the gate now fits, so only those
/// starts are swept. A completion can only move reservations earlier,
/// and the bounded sweep finds exactly that; after the first reservation
/// that moves, the rest of the pass sweeps in full (proof at `schedule`).
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
  /// One candidate's answer: a hold of `plan` over [time, end). A job the
  /// pass started has time == the pass's now and holds its started plan.
  struct Reservation {
    JobId job = kInvalidJobId;
    SimTime time{};
    SimTime end{};
    TakePlan plan;
  };
  /// Reservations in pass order, one per examined candidate. Slots past
  /// `count` keep their plan storage for the next pass to copy-assign into,
  /// so a warm pass allocates nothing.
  struct Ledger {
    std::vector<Reservation> slots;
    std::size_t count = 0;
    void push(JobId job, SimTime time, SimTime end, const TakePlan& plan);
  };

  /// max(now, the expected end of every job that left the running set since
  /// the last pass) when completions are the only change, else nullopt.
  [[nodiscard]] std::optional<SimTime> completion_gate(
      const SchedContext& ctx) const;

  SchedulerStats stats_;

  /// Reservation profile carried across passes (holds = reservations).
  FreeProfile profile_;
  bool cache_valid_ = false;
  std::uint64_t tail_epoch_ = 0;
  SimTime last_now_{};
  /// The reservations the holds came from, as of the last pass (a fast pass
  /// appends); its count is the window slots consumed. A full pass reads
  /// the last pass's and overwrites them in place.
  Ledger reserved_;
  /// A full pass's view of the last pass's own starts: entry k is the
  /// latest end among those at ledger index >= k (SimTime{} when none).
  std::vector<SimTime> later_start_end_;
  /// The running set as the last pass left it, (id, expected_end) in
  /// timeline order, with the timeline's id and version at that point.
  std::vector<std::pair<JobId, SimTime>> running_;
  std::uint64_t running_timeline_ = 0;
  std::uint64_t running_version_ = 0;
};

}  // namespace dmsched
