// Incremental availability: projected free resources over time.
//
// Two pieces share one delta vocabulary:
//
//  - `AvailabilityTimeline` is the *persistent* structure, owned by the
//    engine across scheduler passes. It tracks the live free state plus one
//    sorted release breakpoint per running job, and is updated push-style by
//    the engine's job start/finish hooks (O(log n) locate per update)
//    instead of being rebuilt from a cluster snapshot every pass. Its
//    version counter is the scheduler-side dirty flag: an unchanged version
//    means no resources moved since the last pass.
//
//  - `FreeProfile` is the per-pass *working view*: the timeline's releases
//    plus tentative holds (reservations, what-if backfills). Schedulers keep
//    one FreeProfile alive across passes and `sync()` it: when the timeline
//    is unchanged and no breakpoint crossed `now`, the profile — including
//    its lazily built prefix-state cache — carries over verbatim, so a pass
//    sweeps only windows invalidated since the last one.
//
// Schedulers query the profile for the earliest time a job fits — in BOTH
// dimensions, nodes and pool bytes — which is what makes backfilling
// disaggregation-aware. Feasibility at a breakpoint reuses the placement
// kernel, so the profile can never disagree with the planner about whether
// a job fits.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "memory/placement.hpp"
#include "sched/scheduler.hpp"

namespace dmsched {

/// One change to projected availability: resources become free (`adds`,
/// a running job's expected release or a hold expiring) or are taken
/// (a hold beginning).
struct ProfileDelta {
  SimTime time;
  TakePlan take;
  bool adds = true;
};

/// THE delta ordering: time ascending, additions before subtractions at
/// equal timestamps — so a hold that begins exactly when a release lands is
/// satisfiable, and intermediate sweep states never go negative. Every
/// sweep, insertion, and cache in this file routes through this one helper;
/// the tie-break lives in exactly one place (it used to be copied into each
/// call site, where it could silently drift).
[[nodiscard]] inline bool delta_precedes(const ProfileDelta& a,
                                         const ProfileDelta& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.adds && !b.adds;
}

/// The persistent availability structure: the machine's free state *now*
/// plus the sorted timeline of expected releases of every running job.
///
/// Owned by the simulation engine (one per run) and mutated push-style:
/// `on_start` when a job's resources leave the free pool, `on_finish` when
/// they return (completions, walltime kills, and cancellations all land
/// here — the engine funnels every way a job stops through one completion
/// path). Entries are kept sorted by release time with ties in start order,
/// which is exactly the order a from-scratch rebuild over the running list
/// would produce — the property the golden byte-identity contract rests on.
class AvailabilityTimeline {
 public:
  explicit AvailabilityTimeline(const ClusterConfig& config);

  /// A job's resources left the free pool; they are expected back at
  /// `release_at` (its dilated walltime bound, which it may overrun).
  /// O(log n) locate + insert.
  void on_start(JobId id, SimTime release_at, TakePlan take);

  /// The job stopped (completed, killed, or cancelled) and its resources
  /// are free again. `release_at` must be the bound passed to `on_start`.
  void on_finish(JobId id, SimTime release_at);

  [[nodiscard]] const ClusterConfig& config() const { return *config_; }
  /// Free state at the current instant (mirrors `snapshot(cluster)`).
  [[nodiscard]] const ResourceState& free_now() const { return base_free_; }
  /// The running set: every running job with its release bound and take,
  /// sorted by `expected_end` (ties: job start order).
  [[nodiscard]] const std::vector<RunningJob>& entries() const {
    return entries_;
  }

  /// Process-unique identity (so a scheduler's cache can never confuse two
  /// timelines that happen to share an address across simulations).
  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// Bumped on every mutation: the dirty flag scheduler passes key on.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  const ClusterConfig* config_;
  ResourceState base_free_;
  std::vector<RunningJob> entries_;
  std::uint64_t id_;
  std::uint64_t version_ = 0;
};

/// Piecewise-constant view of future free resources: the timeline's
/// releases plus this pass's tentative holds, with a lazy prefix-state
/// cache over the merged breakpoint array.
class FreeProfile {
 public:
  /// Detached profile: unusable until `sync()` (or assignment) gives it a
  /// machine. Schedulers default-construct one member and sync per pass.
  FreeProfile() = default;

  /// `base` is the free state at `now` (normally `snapshot(cluster)`).
  FreeProfile(ResourceState base, SimTime now, const ClusterConfig* config);

  /// Incremental re-sync against the context. Returns true on the *clean*
  /// path — the context's timeline is the one this profile was built from,
  /// its version is unchanged, and no delta (release or hold boundary) lies
  /// in (old now, new now] — in which case everything, including holds from
  /// the previous pass and the prefix-state cache, carries over and only
  /// now() advances. Otherwise rebuilds from scratch (holds dropped) and
  /// returns false.
  bool sync(const SchedContext& ctx);

  /// Drop every hold added since the last rebuild, keeping releases (and
  /// the release prefix of the state cache). The clean-sync caller's way to
  /// start a pass fresh without paying a rebuild.
  void drop_holds();

  /// Resources return to the pool at `time` (a running job's expected end).
  void add_release(SimTime time, const TakePlan& take);

  /// Resources are held from `start` to `end` (reservation / tentative
  /// backfill). `start` may equal now() for jobs being started in this pass.
  void add_hold(SimTime start, SimTime end, const TakePlan& take);

  /// Free state as of `time` (>= now): base plus all releases/holds with
  /// effect time <= `time`. The reference dies at the profile's next
  /// query or mutation (either may grow or overwrite the row it names).
  [[nodiscard]] const ResourceState& state_at(SimTime time) const;

  /// A start time and the plan the job gets there.
  struct Fit {
    SimTime time;
    TakePlan plan;
  };

  /// Earliest time t >= now at which `job` fits *continuously* over
  /// [t, t + duration_of(plan)): the plan chosen at t must remain
  /// subtractable at every later breakpoint inside the window. This is the
  /// reservation primitive for conservative backfilling, where future holds
  /// make availability non-monotone. `duration_of` maps the plan chosen at
  /// the candidate start to the job's walltime bound (dilation depends on
  /// where the memory comes from); a zero duration asks for an
  /// instantaneous fit. It must be a pure function of the plan: a
  /// candidate that would rebuild a plan which already failed continuity
  /// is skipped on the strength of that plan's window length. No plan's
  /// window may be shorter than the empty plan's, `duration_of(TakePlan{})`:
  /// a candidate whose every possible window covers a row that admits no
  /// plan is rejected without planning it. A walltime dilated by a
  /// validated `SlowdownModel` meets this (dilation >= 1, exactly 1 when
  /// no far bytes are drawn), and so does any constant duration. The sweep
  /// examines no candidate start later than `not_after`: a caller that only
  /// needs to know whether the job fits by then gets nullopt as soon as the
  /// next candidate lies past it. Returns the unbounded sweep's fit when
  /// that fit starts at or before `not_after`, and nullopt otherwise
  /// (unbounded: only if no breakpoint, the last included, admits the job).
  template <class DurationFn>
  [[nodiscard]] std::optional<Fit> earliest_fit_window(
      const Job& job, PlacementPolicy policy, DurationFn&& duration_of,
      SimTime not_after = kTimeInfinity) const;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Checkpoint for tentative holds: everything added after `mark()` can be
  /// dropped with `rollback(mark)`. Backfill uses this to test "what if I
  /// start candidate C now" without copying the profile.
  using Mark = std::size_t;
  [[nodiscard]] Mark mark() const { return deltas_.size(); }
  void rollback(Mark m);

 private:
  void reset(const ResourceState& base, SimTime now,
             const ClusterConfig* config);
  void insert_delta(ProfileDelta d);
  /// Drop cached prefix states at or after `t` (a delta at `t` changed).
  void invalidate_cache_from(SimTime t) const;

  // The sweep primitive: a row cursor over the prefix-state cache. A cursor
  // n means the first n rows lie at or before the instant being examined,
  // so row_state(n) is the state there and row n, the next row, is the
  // next breakpoint. Cursors are row indices, never references: growing
  // the cache may move the rows, and a truncated row's storage is
  // overwritten by the next growth.

  /// Fold every delta at the next distinct delta time into one new row,
  /// copy-assigned into a dead row's storage when one is left. False when
  /// every delta is already folded.
  bool grow_row() const;
  /// The cursor for `t`, growing the cache through every delta time <= `t`
  /// (and one row past it, the next breakpoint).
  [[nodiscard]] std::size_t rows_through(SimTime t) const;
  /// Time of row `k`, growing the cache by one row when `k` is the next
  /// one; kTimeInfinity when no delta is left. Cursors only ever step by
  /// one, so `k` never runs past the grown rows.
  [[nodiscard]] SimTime row_time(std::size_t k) const {
    if (k < cache_times_.size() || grow_row()) return cache_times_[k];
    return kTimeInfinity;
  }
  /// State after the first `n` rows (the base state for n == 0).
  /// Reference dies at the next cache growth.
  [[nodiscard]] const ResourceState& row_state(std::size_t n) const {
    return n == 0 ? base_ : cache_states_[n - 1];
  }

  ResourceState base_;
  SimTime now_{};
  const ClusterConfig* config_ = nullptr;
  /// Insertion-ordered deltas — the mark()/rollback() domain.
  std::vector<ProfileDelta> deltas_;
  /// Indices into deltas_ in delta_precedes order (ties: insertion order).
  std::vector<std::uint32_t> ordered_;
  /// Number of leading deltas_ that are timeline releases (drop_holds floor).
  Mark base_mark_ = 0;

  // sync() bookkeeping: which timeline state this profile mirrors (id 0:
  // none — timeline ids start at 1).
  std::uint64_t timeline_id_ = 0;
  std::uint64_t timeline_version_ = 0;

  // Lazy prefix-state cache: row k holds the state after every delta with
  // time <= cache_times_[k] (one row per distinct delta time, ascending),
  // and cache_consumed_[k] counts the ordered_ entries folded in. Rows at
  // or after a mutated time are truncated; everything earlier survives
  // across queries, holds, rollbacks, and clean syncs. Only the first
  // cache_times_.size() entries of cache_states_ are live rows; the rest
  // is storage that truncation and rebuilds leave behind for grow_row to
  // reuse, so a warm profile folds rows without allocating.
  mutable std::vector<SimTime> cache_times_;
  mutable std::vector<ResourceState> cache_states_;
  mutable std::vector<std::size_t> cache_consumed_;
};

template <class DurationFn>
std::optional<FreeProfile::Fit> FreeProfile::earliest_fit_window(
    const Job& job, PlacementPolicy policy, DurationFn&& duration_of,
    SimTime not_after) const {
  // One cursor walks the candidates; the continuity check walks a second
  // one forward from it. Each step reads the next row instead of searching.
  // One scratch plan serves every candidate; it moves into the Fit.
  //
  // A failed candidate's verdict is kept: `plan`, built on row_state(built),
  // broke continuity at row `failed`. While every delta folded since keeps
  // that plan (keeps_plan), a candidate up to `failed` would rebuild it, and
  // since its window has the same length and a later start, it still
  // covers `failed` and fails there too: it is skipped unbuilt.
  //
  // The failing row also rejects candidates whose plan is unknown. Every
  // window is at least `shortest` long (the duration_of contract), so one
  // starting at t covers every row from the candidate's on that lies
  // before t + shortest. If `failed` is such a row and its totals do not
  // admit the job, no plan the kernel could build applies there:
  // can_apply tests each slice against its rack and the global tier, and
  // those tests sum to totals_admit's (a plan takes exactly the job's
  // nodes and far bytes, from the tiers its routing allows). So the
  // candidate fails continuity whatever it would plan, and is not planned.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  if (now_ > not_after) return std::nullopt;
  const SimTime shortest = duration_of(TakePlan{});
  std::size_t n = rows_through(now_);
  SimTime t = now_;
  TakePlan plan;
  std::size_t built = 0;
  std::size_t failed = kNone;
  bool repeats = false;  // `plan` is what compute_take returns at row n
  for (;;) {
    if (repeats) {
#ifndef NDEBUG
      TakePlan shadow;
      DMSCHED_ASSERT(
          compute_take(row_state(n), *config_, job, policy, shadow) &&
              shadow == plan,
          "earliest_fit_window: a skipped candidate builds another plan");
      DMSCHED_ASSERT(row_time(failed) < t + duration_of(plan) &&
                         !can_apply(cache_states_[failed], plan),
                     "earliest_fit_window: a skipped candidate is continuous");
#endif
    } else if (failed != kNone && failed >= n &&
               row_time(failed) < t + shortest &&
               !totals_admit(cache_states_[failed], *config_, job, policy)) {
#ifndef NDEBUG
      // Plan it anyway and walk its window: it must break continuity.
      TakePlan shadow;
      if (compute_take(row_state(n), *config_, job, policy, shadow)) {
        const SimTime end = t + duration_of(shadow);
        std::size_t k = n;
        while (row_time(k) < end && can_apply(cache_states_[k], shadow)) ++k;
        DMSCHED_ASSERT(row_time(k) < end,
                       "earliest_fit_window: a candidate rejected at the "
                       "failing row is continuous");
      }
#endif
    } else if (totals_admit(row_state(n), *config_, job, policy) &&
               compute_take(row_state(n), *config_, job, policy, plan)) {
      const SimTime end = t + duration_of(plan);
      // The last failing row first when this window covers it: the same
      // contended rack usually fails again, and continuity is a
      // conjunction, so the order of the tests cannot change the verdict.
      std::size_t k = failed;
      if (failed == kNone || failed < n || row_time(failed) >= end ||
          can_apply(cache_states_[failed], plan)) {
        for (k = n; row_time(k) < end && can_apply(cache_states_[k], plan);
             ++k) {
        }
        if (row_time(k) >= end) return Fit{t, std::move(plan)};
      }
      built = n;
      failed = k;
      repeats = true;
    }
    t = row_time(n);
    // Past the final state (tested) or past the caller's bound.
    if (t == kTimeInfinity || t > not_after) return std::nullopt;
    ++n;
    // Check the deltas of the row just crossed against the kept plan.
    if (!repeats || n > failed) {
      repeats = false;
      continue;
    }
    const std::size_t last = cache_consumed_[n - 1];
    for (std::size_t i = n == 1 ? 0 : cache_consumed_[n - 2];
         repeats && i < last; ++i) {
      repeats = keeps_plan(row_state(built), plan, policy,
                           deltas_[ordered_[i]].take, row_state(n));
    }
  }
}

}  // namespace dmsched
