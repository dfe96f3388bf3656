#include "sched/easy.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/assert.hpp"
#include "sched/profile.hpp"

namespace dmsched {

namespace {

/// Phase 3's state behind the blocked head. Two counters: `extra` drives
/// the decisions (legacy semantics — raw-walltime shadow test, deduct only
/// for runs-past-shadow admissions), while `cache_extra` tracks the
/// crossing margin a *recompute* of phase 2 would find afterwards. They
/// differ because the engine's actual release bound is dilated: a start
/// admitted as "ends before shadow" on raw walltime can release after it,
/// and then its nodes are not back by the shadow — the recomputed extra
/// shrinks, and if it would go negative the shadow itself moves later.
struct Backfill {
  SimTime now;
  SimTime shadow;
  std::int32_t extra;
  std::int32_t cache_extra;
  bool cache_ok = true;
};

/// Judge one queued job behind the head, starting it if a backfill rule
/// admits it and it fits now. The full pass and the fast pass share it.
inline void backfill_one(SchedContext& ctx, SchedulerStats& stats, JobId id,
                         Backfill& b) {
  const Job& cand = ctx.job(id);
  ++stats.jobs_examined;
  // Rules first (memory-unaware bound: raw walltime, no dilation): they
  // do not depend on the allocation, and planning is the expensive step —
  // at saturation almost every candidate dies here, so the full pass is
  // an O(1) test per queued job plus a plan per plausible backfill.
  const bool ends_before_shadow = b.now + cand.walltime <= b.shadow;
  const bool within_extra = cand.nodes <= b.extra;
  if (!ends_before_shadow && !within_extra) return;
  // A plan needs cand.nodes free nodes somewhere; don't ask for one when
  // the machine provably lacks them.
  if (cand.nodes > ctx.cluster().free_nodes_total()) return;
  ++stats.plans_attempted;
  auto alloc = plan_start(ctx.cluster(), cand, ctx.placement());
  if (!alloc) return;
  // The engine's release bound for this start (dilated walltime).
  const SimTime bound =
      b.now + cand.walltime.scaled(ctx.slowdown().dilation_for(*alloc, cand));
  ctx.start_job(id, *alloc);
  if (!ends_before_shadow) b.extra -= cand.nodes;
  if (bound > b.shadow) {
    b.cache_extra -= cand.nodes;
    if (b.cache_extra < 0) b.cache_ok = false;
  } else if (bound == b.shadow) {
    // A release exactly at the shadow sits among the equal-end releases
    // of the crossing walk, where the id tie-break decides whether its
    // nodes count toward the recomputed extra. Not worth modelling.
    b.cache_ok = false;
  }
}

/// Where the blocked head's node count is first met: the release bound at
/// which `avail` free nodes plus the nodes released so far reach `need`,
/// and the surplus there.
struct Crossing {
  SimTime shadow = kTimeInfinity;
  std::int32_t extra = 0;
};

/// Phase 2's walk over the timeline's releases in place. EASY takes equal
/// release bounds in job-id order, and which of them precede the crossing
/// decides `extra`; the timeline keeps them in start order instead. So a
/// whole equal-time group that leaves the head short is added at once, and
/// only the group the crossing falls in is walked by ascending id (a
/// selection walk: groups are short, and this one is the last walked).
Crossing find_crossing(const std::vector<RunningJob>& releases,
                       std::int32_t avail, std::int32_t need) {
  auto group = releases.begin();
  while (group != releases.end()) {
    const SimTime t = group->expected_end;
    auto group_end = group;
    std::int32_t freed = 0;
    for (; group_end != releases.end() && group_end->expected_end == t;
         ++group_end) {
      freed += group_end->take.node_total();
    }
    if (avail + freed >= need) {
      for (std::int64_t last = -1;;) {
        auto next = group_end;
        for (auto it = group; it != group_end; ++it) {
          if (it->id > last && (next == group_end || it->id < next->id)) {
            next = it;
          }
        }
        avail += next->take.node_total();
        if (avail >= need) return {t, avail - need};
        last = next->id;
      }
    }
    avail += freed;
    group = group_end;
  }
  return {};
}

#ifndef NDEBUG
/// find_crossing's reference: the walk over a copy sorted by
/// (expected_end, id).
Crossing sorted_crossing(std::vector<RunningJob> releases, std::int32_t avail,
                         std::int32_t need) {
  std::sort(releases.begin(), releases.end(),
            [](const RunningJob& a, const RunningJob& b) {
              return std::tie(a.expected_end, a.id) <
                     std::tie(b.expected_end, b.id);
            });
  for (const RunningJob& r : releases) {
    avail += r.take.node_total();
    if (avail >= need) return {r.expected_end, avail - need};
  }
  return {};
}
#endif

}  // namespace

bool EasyScheduler::try_fast_pass(SchedContext& ctx) {
  const AvailabilityTimeline& tl = *ctx.timeline();
  if (!cache_valid_ || !ctx.queue_order_stable() || tl.id() != timeline_id_ ||
      tl.version() != timeline_version_ || ctx.now() < cached_now_) {
    return false;
  }
  // Unchanged timeline version ⇒ no start or finish since the cached pass:
  // the cluster is byte-identical, the head is still blocked (plan_start is
  // a pure function of cluster state), and every candidate the cached pass
  // rejected stays rejected — both backfill rules only tighten as now
  // advances past a fixed shadow, and the stored extra_ only shrank. Only
  // jobs appended since need judging, by the same backfill_one step and
  // two-counter bookkeeping (Backfill) as the full pass's phase 3.
  const SimTime now = ctx.now();
  Backfill b{.now = now,
             .shadow = shadow_is_now_ ? now : shadow_,
             .extra = extra_,
             .cache_extra = extra_};
  for (const JobId id : ctx.queued_jobs_after(tail_epoch_)) {
    backfill_one(ctx, stats_, id, b);
  }
  // Starts whose dilated bound lands by the shadow return their nodes in
  // time and leave the head's crossing point untouched; starts running past
  // it consumed crossing margin, tracked in cache_extra. Either way this
  // pass's decisions matched a recompute; the cache survives only while the
  // margin stays non-negative.
  if (!b.cache_ok) {
    cache_valid_ = false;
    return true;
  }
  timeline_version_ = tl.version();
  tail_epoch_ = ctx.queue_tail_epoch();
  cached_now_ = now;
  extra_ = b.cache_extra;
  return true;
}

void EasyScheduler::schedule(SchedContext& ctx) {
  ++stats_.passes;
  if (try_fast_pass(ctx)) {
    ++stats_.fast_passes;
    return;
  }
  cache_valid_ = false;

  const auto queue = ctx.queued_jobs();
  std::size_t qi = 0;

  // Phase 1: start in order while the head fits.
  while (qi < queue.size()) {
    ++stats_.jobs_examined;
    ++stats_.plans_attempted;
    auto alloc =
        plan_start(ctx.cluster(), ctx.job(queue[qi]), ctx.placement());
    if (!alloc) break;
    ctx.start_job(queue[qi], *alloc);
    ++qi;
  }
  if (qi >= queue.size()) return;

  // Phase 2: node-only shadow time for the blocked head. Walk expected
  // releases in time order accumulating freed nodes until the head fits.
  const Job& head = ctx.job(queue[qi]);
  const std::int32_t avail = ctx.cluster().free_nodes_total();
  SimTime shadow = kTimeInfinity;
  bool shadow_is_now = false;
  std::int32_t extra = 0;
  if (avail >= head.nodes) {
    // Head has the nodes but not the memory: a node-only policy reserves
    // nothing and the whole queue is fair game for backfill. This is the
    // failure mode memory-aware scheduling fixes.
    shadow = ctx.now();
    shadow_is_now = true;
    extra = avail - head.nodes;
  } else {
    const auto& releases = ctx.timeline()->entries();
    const Crossing c = find_crossing(releases, avail, head.nodes);
#ifndef NDEBUG
    const Crossing ref = sorted_crossing(releases, avail, head.nodes);
    DMSCHED_ASSERT(c.shadow == ref.shadow && c.extra == ref.extra,
                   "EASY: in-place crossing differs from the sorted walk");
#endif
    shadow = c.shadow;
    extra = c.extra;
  }
  DMSCHED_ASSERT(shadow < kTimeInfinity,
                 "EASY: head job wider than the machine was not rejected");

  // Phase 3: backfill behind the head (see Backfill for the two counters).
  Backfill b{.now = ctx.now(),
             .shadow = shadow,
             .extra = extra,
             .cache_extra = extra};
  for (std::size_t i = qi + 1; i < queue.size(); ++i) {
    backfill_one(ctx, stats_, queue[i], b);
  }

  // The pass converged with the head blocked: remember its shadow and the
  // recompute-equivalent extra budget so the next pass can skip straight to
  // new arrivals (a start releasing by the shadow leaves the crossing point
  // where it was; one running past it only consumed margin — unless the
  // margin ran out, in which case the shadow moved and the cache is dead).
  if (b.cache_ok && ctx.queue_order_stable()) {
    const AvailabilityTimeline& tl = *ctx.timeline();
    cache_valid_ = true;
    timeline_id_ = tl.id();
    timeline_version_ = tl.version();
    tail_epoch_ = ctx.queue_tail_epoch();
    cached_now_ = ctx.now();
    shadow_is_now_ = shadow_is_now;
    shadow_ = shadow;
    extra_ = b.cache_extra;
  }
}

}  // namespace dmsched
