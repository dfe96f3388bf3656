#include "sched/profile.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/assert.hpp"

namespace dmsched {
namespace {

std::uint64_t next_timeline_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void apply_signed(ResourceState& state, const TakePlan& take, bool adds) {
  if (adds) {
    release_take(state, take);
  } else {
    apply_take(state, take);
  }
}

}  // namespace

// --- AvailabilityTimeline ----------------------------------------------------

AvailabilityTimeline::AvailabilityTimeline(const ClusterConfig& config)
    : config_(&config),
      base_free_(empty_state(config)),
      id_(next_timeline_id()) {}

void AvailabilityTimeline::on_start(JobId id, SimTime release_at,
                                    TakePlan take) {
  apply_take(base_free_, take);
  // upper_bound keeps equal release times in start order — the order a
  // rebuild over the running list would see them in.
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), release_at,
      [](SimTime t, const RunningJob& e) { return t < e.expected_end; });
  entries_.insert(it, RunningJob{id, release_at, std::move(take)});
  ++version_;
}

void AvailabilityTimeline::on_finish(JobId id, SimTime release_at) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), release_at,
      [](const RunningJob& e, SimTime t) { return e.expected_end < t; });
  while (it != entries_.end() && it->expected_end == release_at &&
         it->id != id) {
    ++it;
  }
  DMSCHED_ASSERT(it != entries_.end() && it->expected_end == release_at,
                 "AvailabilityTimeline: finish for untracked job");
  release_take(base_free_, it->take);
  entries_.erase(it);
  ++version_;
}

std::vector<RunningJob> SchedContext::running_jobs() const {
  return timeline()->entries();
}

// --- FreeProfile -------------------------------------------------------------

FreeProfile::FreeProfile(ResourceState base, SimTime now,
                         const ClusterConfig* config) {
  reset(base, now, config);
}

void FreeProfile::reset(const ResourceState& base, SimTime now,
                        const ClusterConfig* config) {
  DMSCHED_ASSERT(config != nullptr, "FreeProfile: null config");
  base_ = base;
  now_ = now;
  config_ = config;
  // deltas_ is left to the caller: sync() overwrites its slots in place.
  ordered_.clear();
  base_mark_ = 0;
  timeline_id_ = 0;
  timeline_version_ = 0;
  cache_times_.clear();  // cache_states_ stays: dead rows are storage
  cache_consumed_.clear();
}

bool FreeProfile::sync(const SchedContext& ctx) {
  const AvailabilityTimeline& tl = *ctx.timeline();
  const SimTime now = ctx.now();
  if (timeline_id_ == tl.id() && timeline_version_ == tl.version() &&
      now >= now_ && row_time(rows_through(now_)) > now) {
    // Clean: no resources moved and no delta (release or hold boundary)
    // crossed now since the last pass — the profile, its holds, and the
    // prefix-state cache all stay valid; only the clock advances.
    now_ = now;
    return true;
  }
  reset(tl.free_now(), now, &tl.config());
  const auto& entries = tl.entries();
  // Each release is copy-assigned over the slot it held after the last
  // rebuild, reusing that slot's plan storage.
  deltas_.resize(entries.size());
  ordered_.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // Timeline entries are already in delta_precedes order (all adds,
    // time-sorted), so ordered_ is just the identity — no sort.
    deltas_[i].time = entries[i].expected_end;
    deltas_[i].take = entries[i].take;
    deltas_[i].adds = true;
    ordered_.push_back(static_cast<std::uint32_t>(i));
  }
  timeline_id_ = tl.id();
  timeline_version_ = tl.version();
  base_mark_ = deltas_.size();
  return false;
}

void FreeProfile::drop_holds() { rollback(base_mark_); }

void FreeProfile::add_release(SimTime time, const TakePlan& take) {
  // An expected release in the past (a dilated job overrunning its walltime
  // bound) needs no clamp: every query instant is >= now(), so the delta is
  // folded into the sweep-start state either way.
  insert_delta({time, take, /*adds=*/true});
}

void FreeProfile::add_hold(SimTime start, SimTime end, const TakePlan& take) {
  DMSCHED_ASSERT(start >= now_, "add_hold: hold starts in the past");
  DMSCHED_ASSERT(end > start, "add_hold: empty hold");
  insert_delta({start, take, /*adds=*/false});
  insert_delta({end, take, /*adds=*/true});
}

void FreeProfile::insert_delta(ProfileDelta d) {
  invalidate_cache_from(d.time);
  const auto idx = static_cast<std::uint32_t>(deltas_.size());
  deltas_.push_back(std::move(d));
  const ProfileDelta& nd = deltas_.back();
  // upper_bound: equal deltas land after existing ones, so ties within one
  // (time, adds) class keep insertion order — exactly what stable_sort over
  // the insertion-ordered vector used to produce.
  const auto it = std::upper_bound(
      ordered_.begin(), ordered_.end(), nd,
      [this](const ProfileDelta& a, std::uint32_t bi) {
        return delta_precedes(a, deltas_[bi]);
      });
  ordered_.insert(it, idx);
}

void FreeProfile::rollback(Mark m) {
  DMSCHED_ASSERT(m <= deltas_.size(), "rollback: mark from the future");
  if (m == deltas_.size()) return;
  SimTime first_removed = kTimeInfinity;
  for (std::size_t i = m; i < deltas_.size(); ++i) {
    first_removed = std::min(first_removed, deltas_[i].time);
  }
  invalidate_cache_from(first_removed);
  ordered_.erase(std::remove_if(ordered_.begin(), ordered_.end(),
                                [m](std::uint32_t i) { return i >= m; }),
                 ordered_.end());
  deltas_.resize(m);
}

void FreeProfile::invalidate_cache_from(SimTime t) const {
  const auto it =
      std::lower_bound(cache_times_.begin(), cache_times_.end(), t);
  const auto keep = static_cast<std::size_t>(it - cache_times_.begin());
  // Surviving rows only fold deltas with time < t; a delta inserted or
  // removed at time >= t sits after that prefix in ordered_, so the rows'
  // consumed counts stay valid. Truncated states stay as storage.
  cache_times_.resize(keep);
  cache_consumed_.resize(keep);
}

bool FreeProfile::grow_row() const {
  const std::size_t k = cache_times_.size();
  std::size_t i = k == 0 ? 0 : cache_consumed_.back();
  if (i >= ordered_.size()) return false;
  if (k == cache_states_.size()) cache_states_.emplace_back();
  ResourceState& state = cache_states_[k];
  state = row_state(k);  // copy-assign: reuses the dead row's vectors
  const SimTime time = deltas_[ordered_[i]].time;
  // Every delta at this time is folded (adds before subtracts, per
  // ordered_): intermediate same-time states are never observable, matching
  // the "apply everything <= t" contract.
  for (; i < ordered_.size() && deltas_[ordered_[i]].time == time; ++i) {
    const ProfileDelta& d = deltas_[ordered_[i]];
    apply_signed(state, d.take, d.adds);
  }
  cache_times_.push_back(time);
  cache_consumed_.push_back(i);
  return true;
}

std::size_t FreeProfile::rows_through(SimTime t) const {
  auto n = static_cast<std::size_t>(
      std::upper_bound(cache_times_.begin(), cache_times_.end(), t) -
      cache_times_.begin());
  // Past the grown rows, step the cursor until the next row lies after t.
  while (n == cache_times_.size() && grow_row() && cache_times_[n] <= t) ++n;
  return n;
}

const ResourceState& FreeProfile::state_at(SimTime time) const {
  DMSCHED_ASSERT(time >= now_, "state_at: time in the past");
  return row_state(rows_through(time));
}

}  // namespace dmsched
