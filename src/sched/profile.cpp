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
  // upper_bound keeps equal release times in on_start order.
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
#ifndef NDEBUG
  DMSCHED_ASSERT(within_machine(base_free_, *config_),
                 "AvailabilityTimeline: a finish frees more than the machine "
                 "has");
#endif
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
  plan_count_ = 0;  // plans_ stays: dead slots are storage
  ordered_.clear();
  base_mark_ = 0;
  future_takes_ = 0;
  timeline_id_ = 0;
  timeline_version_ = 0;
  cache_times_.clear();  // cache_states_ and cache_slot_ stay: storage
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
  // Each release is copy-assigned over the plan slot it held after the
  // last rebuild, reusing that slot's storage.
  deltas_.resize(entries.size());
  ordered_.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // Timeline entries are already in `precedes` order (all adds,
    // time-sorted), so ordered_ is just the identity — no sort.
    deltas_[i] = {entries[i].expected_end, store_plan(entries[i].take),
                  /*adds=*/true};
    ordered_.push_back(static_cast<std::uint32_t>(i));
  }
  timeline_id_ = tl.id();
  timeline_version_ = tl.version();
  base_mark_ = deltas_.size();
  return false;
}

void FreeProfile::drop_holds() { rollback(base_mark_); }

std::uint32_t FreeProfile::store_plan(const TakePlan& take) {
  if (plan_count_ == plans_.size()) {
    plans_.push_back(take);
  } else {
    plans_[plan_count_] = take;
  }
  return static_cast<std::uint32_t>(plan_count_++);
}

void FreeProfile::add_release(SimTime time, const TakePlan& take) {
  // An expected release in the past (a dilated job overrunning its walltime
  // bound) needs no clamp: every query instant is >= now(), so the delta is
  // folded into the sweep-start state either way.
  invalidate_cache_from(time);
  insert_delta({time, store_plan(take), /*adds=*/true});
}

void FreeProfile::add_hold(SimTime start, SimTime end, const TakePlan& take) {
  DMSCHED_ASSERT(start >= now_, "add_hold: hold starts in the past");
  DMSCHED_ASSERT(end > start, "add_hold: empty hold");
  const std::uint32_t plan = store_plan(take);
  if (start == now_) {
    invalidate_cache_from(start);
  } else {
    ++future_takes_;
  }
  insert_delta({start, plan, /*adds=*/false});
  insert_delta({end, plan, /*adds=*/true});
  if (start > now_) fold_hold(start, end, plan);
}

void FreeProfile::insert_delta(Delta d) {
  const auto idx = static_cast<std::uint32_t>(deltas_.size());
  deltas_.push_back(d);
  // upper_bound: equal deltas land after existing ones, so ties within one
  // (time, adds) class keep insertion order — exactly what stable_sort over
  // the insertion-ordered vector used to produce.
  const auto it = std::upper_bound(
      ordered_.begin(), ordered_.end(), d,
      [this](const Delta& a, std::uint32_t bi) {
        return precedes(a, deltas_[bi]);
      });
  ordered_.insert(it, idx);
}

// Why the fold builds what truncate-and-regrow builds. Row k holds the
// base state plus every delta at or before its time; states are integer
// counts, so only the set of deltas folded matters, not their order.
//  - A row before `start` folds no delta of the hold and keeps its place
//    in ordered_: the two new deltas sort after everything it consumed.
//  - A row in [start, end) folds the take and not the release: it takes
//    the plan, and its consumed count grows by the one delta at `start`.
//  - A row at or after `end` folds both, which cancel: its state stays,
//    and its consumed count grows by 2.
//  - Rows are one per distinct delta time. When a grown row lies past
//    `start` (or `end`) but none sits on it, no delta sat at that time, so
//    regrowing makes a row there that folds the hold's one delta into the
//    state before it; the fold inserts exactly that row.
//  - Past the last grown row nothing is cached, and the new deltas sort
//    after every consumed one, so grow_row folds them as it would have.
// The same monotone argument as grow_row's covers the overcommit asserts:
// apply_take fails here only on a row whose final state is negative, on
// which grow_row would fail too.
void FreeProfile::fold_hold(SimTime start, SimTime end, std::uint32_t plan) {
  const TakePlan& take = plans_[plan];
  auto k = static_cast<std::size_t>(
      std::lower_bound(cache_times_.begin(), cache_times_.end(), start) -
      cache_times_.begin());
  if (k == cache_times_.size()) return;
  if (cache_times_[k] != start) {
    insert_row(k, start, k == 0 ? 0 : cache_consumed_[k - 1]);
  }
  for (; k < cache_times_.size() && cache_times_[k] < end; ++k) {
    apply_take(cache_states_[cache_slot_[k]], take);
    ++cache_consumed_[k];
  }
  if (k < cache_times_.size() && cache_times_[k] != end) {
    release_take(insert_row(k, end, cache_consumed_[k - 1] + 1), take);
    ++k;
  }
  for (; k < cache_times_.size(); ++k) cache_consumed_[k] += 2;
#ifndef NDEBUG
  check_rows();
#endif
}

#ifndef NDEBUG
void FreeProfile::check_rows() const {
  ResourceState state = base_;
  std::size_t i = 0;
  for (std::size_t k = 0; k < cache_times_.size(); ++k) {
    DMSCHED_ASSERT(i < ordered_.size(), "FreeProfile: a row past the deltas");
    const SimTime time = deltas_[ordered_[i]].time;
    for (; i < ordered_.size() && deltas_[ordered_[i]].time == time; ++i) {
      const Delta& d = deltas_[ordered_[i]];
      apply_signed(state, plans_[d.plan], d.adds);
    }
    const ResourceState& got = row(k);
    DMSCHED_ASSERT(cache_times_[k] == time && cache_consumed_[k] == i &&
                       got.free_nodes == state.free_nodes &&
                       got.pool_free == state.pool_free &&
                       got.free_gpus == state.free_gpus &&
                       got.global_free == state.global_free &&
                       got.bb_free == state.bb_free &&
                       got.free_nodes_total == state.free_nodes_total &&
                       got.pool_free_total == state.pool_free_total,
                   "FreeProfile: a folded hold left a row regrowing would "
                   "not build");
  }
}
#endif

void FreeProfile::rollback(Mark m) {
  DMSCHED_ASSERT(m <= deltas_.size(), "rollback: mark from the future");
  // A hold adds its start, then its end: a mark right after a start would
  // keep a take with no matching release.
  DMSCHED_ASSERT(m == 0 || deltas_[m - 1].adds, "rollback: mark splits a hold");
  if (m == deltas_.size()) return;
  SimTime first_removed = kTimeInfinity;
  for (std::size_t i = m; i < deltas_.size(); ++i) {
    first_removed = std::min(first_removed, deltas_[i].time);
    if (!deltas_[i].adds && deltas_[i].time > now_) --future_takes_;
  }
  invalidate_cache_from(first_removed);
  ordered_.erase(std::remove_if(ordered_.begin(), ordered_.end(),
                                [m](std::uint32_t i) { return i >= m; }),
                 ordered_.end());
  deltas_.resize(m);
  // Plans are stored in delta order, and the last kept delta closes its
  // plan (a release or a hold's end), so it names the last kept slot.
  plan_count_ = m == 0 ? 0 : deltas_[m - 1].plan + std::size_t{1};
}

void FreeProfile::invalidate_cache_from(SimTime t) const {
  const auto it =
      std::lower_bound(cache_times_.begin(), cache_times_.end(), t);
  const auto keep = static_cast<std::size_t>(it - cache_times_.begin());
  // Surviving rows only fold deltas with time < t; a delta inserted or
  // removed at time >= t sits after that prefix in ordered_, so the rows'
  // consumed counts stay valid. Truncated states stay as storage, and
  // cache_slot_ keeps naming them past the live rows.
  cache_times_.resize(keep);
  cache_consumed_.resize(keep);
}

ResourceState& FreeProfile::insert_row(std::size_t k, SimTime time,
                                       std::size_t consumed) const {
  const std::size_t live = cache_times_.size();
  if (live == cache_slot_.size()) {
    cache_slot_.push_back(static_cast<std::uint32_t>(cache_states_.size()));
    cache_states_.emplace_back();
  }
  // The first dead slot moves to position k; the live rows from k on
  // shift up by one index.
  std::rotate(cache_slot_.begin() + static_cast<std::ptrdiff_t>(k),
              cache_slot_.begin() + static_cast<std::ptrdiff_t>(live),
              cache_slot_.begin() + static_cast<std::ptrdiff_t>(live + 1));
  cache_times_.insert(cache_times_.begin() + static_cast<std::ptrdiff_t>(k),
                      time);
  cache_consumed_.insert(
      cache_consumed_.begin() + static_cast<std::ptrdiff_t>(k), consumed);
  ResourceState& state = cache_states_[cache_slot_[k]];
  state = row_state(k);  // copy-assign: reuses the dead row's vectors
  return state;
}

bool FreeProfile::grow_row() const {
  const std::size_t k = cache_times_.size();
  std::size_t i = k == 0 ? 0 : cache_consumed_.back();
  if (i >= ordered_.size()) return false;
  const SimTime time = deltas_[ordered_[i]].time;
  // Every delta at this time is folded (adds before subtracts, per
  // ordered_): intermediate same-time states are never observable, matching
  // the "apply everything <= t" contract.
  std::size_t last = i;
  while (last < ordered_.size() && deltas_[ordered_[last]].time == time) {
    ++last;
  }
  ResourceState& state = insert_row(k, time, last);
  for (; i < last; ++i) {
    const Delta& d = deltas_[ordered_[i]];
    apply_signed(state, plans_[d.plan], d.adds);
  }
#ifndef NDEBUG
  DMSCHED_ASSERT(within_machine(state, *config_),
                 "FreeProfile: a row frees more than the machine has");
#endif
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
