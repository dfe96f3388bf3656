#include "core/mem_aware_easy.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "common/assert.hpp"

namespace dmsched {

const char* to_string(BackfillOrder order) {
  switch (order) {
    case BackfillOrder::kQueueOrder: return "queue-order";
    case BackfillOrder::kShortestFirst: return "shortest-first";
    case BackfillOrder::kBestMemFit: return "best-mem-fit";
  }
  return "?";
}

MemAwareEasyScheduler::MemAwareEasyScheduler(MemAwareOptions options)
    : options_(options) {
  DMSCHED_ASSERT(options_.reservation_depth > 0,
                 "mem-easy: need at least the head reservation");
}

namespace {

using Reservation = MemAwareEasyScheduler::Reservation;

/// A start option: when, with what resources, at what dilation cost.
struct FitChoice {
  FreeProfile::Fit fit;
  double dilation = 1.0;
  /// Walltime-bounded completion estimate: fit.time + walltime × dilation.
  SimTime finish_bound{};
};

/// The dilation `job` runs at when its memory comes from `plan`.
double dilation_of(const SchedContext& ctx, const Job& job,
                   const TakePlan& plan) {
  return ctx.slowdown().dilation_bytes(
      plan.rack_pool_total(), plan.neighbor_pool_total(), plan.global_total(),
      job.total_mem(), job.sensitivity);
}

/// Estimated-finish evaluation of the earliest *window* fit under `policy`.
/// Window fitting is required once reservations (future holds) are in the
/// profile; on a monotone profile it equals the instantaneous fit. A fit
/// starting after `not_after` comes back as nullopt.
std::optional<FitChoice> evaluate_fit(const FreeProfile& profile,
                                      const Job& job, const SchedContext& ctx,
                                      PlacementPolicy policy,
                                      SimTime not_after = kTimeInfinity) {
  const auto duration_of = [&](const TakePlan& plan) {
    return job.walltime.scaled(dilation_of(ctx, job, plan));
  };
  auto fit = profile.earliest_fit_window(job, policy, duration_of, not_after);
  if (!fit) return std::nullopt;
  const double dil = dilation_of(ctx, job, fit->plan);
  FitChoice choice{std::move(*fit), dil, SimTime{}};
  choice.finish_bound = choice.fit.time + job.walltime.scaled(dil);
  return choice;
}

/// Plain mode: earliest fit under the configured policy. Adaptive mode:
/// also evaluate a rack-pool-only start and pick whichever finishes sooner
/// (deferral must win by the configured margin). `base` is the planning
/// policy — the context's placement with this scheduler's axes applied.
/// When only the primary fit counts (plain mode or rack-only routing), a
/// fit starting after `not_after` comes back as nullopt and the sweep stops
/// there; the adaptive comparison ignores the bound.
std::optional<FitChoice> choose_fit(const FreeProfile& profile, const Job& job,
                                    const SchedContext& ctx,
                                    const MemAwareOptions& opts,
                                    const PlacementPolicy& base,
                                    SimTime not_after = kTimeInfinity) {
  if (!opts.adaptive || base.routing == PoolRouting::kRackOnly) {
    return evaluate_fit(profile, job, ctx, base, not_after);
  }
  // Both sweeps run unbounded: a primary fit past `not_after` can still win
  // the comparison against an in-bound rack-only fit.
  auto primary = evaluate_fit(profile, job, ctx, base);
  PlacementPolicy rack_only = base;
  rack_only.routing = PoolRouting::kRackOnly;
  auto alt = evaluate_fit(profile, job, ctx, rack_only);
  if (!primary) return alt;
  if (!alt) return primary;
  if (alt->finish_bound.seconds() + opts.adaptive_margin_sec <
      primary->finish_bound.seconds()) {
    return alt;  // waiting for cheap rack memory beats dilating now
  }
  return primary;
}

/// Tier-headroom shield: true when starting `take` now would leave each
/// pool tier at least `reserve` of its capacity free. Reads the remaining
/// capacity through the topology model, so the check is about *tiers*, not
/// individual racks — the rack tier is judged in aggregate (a balanced
/// machine can concentrate its remaining bytes in one rack and still serve
/// the head), the global tier on its own.
bool leaves_tier_headroom(const SchedContext& ctx, const ResourceState& state,
                          const TakePlan& take, double reserve) {
  const Topology& topo = ctx.topology();
  const TierHeadroom head = topo.headroom(state);
  if (topo.has_rack_tier()) {
    const Bytes floor{static_cast<std::int64_t>(
        static_cast<double>(topo.rack_tier_capacity().count()) * reserve)};
    if (head.rack_pool_free - min(head.rack_pool_free, take.rack_tier_total())
        < floor) {
      return false;
    }
  }
  if (topo.has_global_tier()) {
    const Bytes floor{static_cast<std::int64_t>(
        static_cast<double>(topo.global_tier_capacity().count()) * reserve)};
    if (head.global_free - min(head.global_free, take.global_total()) <
        floor) {
      return false;
    }
  }
  return true;
}

/// Hold `choice` for job `id` on `profile`: its reservation.
Reservation hold_reservation(FreeProfile& profile, JobId id,
                             const FitChoice& choice) {
  profile.add_hold(choice.fit.time, choice.finish_bound, choice.fit.plan);
  return {id, choice.fit.time, choice.finish_bound};
}

#ifndef NDEBUG
/// The full recompute keeps_baseline replaces: true when `fresh` does not
/// delay any job relative to `baseline` (pairwise by index).
bool no_regression(const std::vector<Reservation>& baseline,
                   const std::vector<Reservation>& fresh) {
  DMSCHED_ASSERT(baseline.size() == fresh.size(),
                 "reservation recount mismatch");
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (fresh[i].start > baseline[i].start) return false;
    if (fresh[i].finish_bound > baseline[i].finish_bound) return false;
  }
  return true;
}
#endif

}  // namespace

std::vector<Reservation> place_reservations(FreeProfile& profile,
                                            std::span<const JobId> jobs,
                                            const SchedContext& ctx,
                                            const MemAwareOptions& opts,
                                            const PlacementPolicy& planning) {
  std::vector<Reservation> reservations;
  reservations.reserve(jobs.size());
  for (const JobId id : jobs) {
    const auto choice = choose_fit(profile, ctx.job(id), ctx, opts, planning);
    // Admitted jobs always fit once the profile drains.
    DMSCHED_ASSERT(choice.has_value(),
                   "mem-easy: admitted job has no reservation");
    reservations.push_back(hold_reservation(profile, id, *choice));
  }
  return reservations;
}

bool keeps_baseline(FreeProfile& profile,
                    const std::vector<Reservation>& baseline,
                    const SchedContext& ctx, const MemAwareOptions& opts,
                    const PlacementPolicy& planning) {
  for (const Reservation& base : baseline) {
    const auto choice =
        choose_fit(profile, ctx.job(base.id), ctx, opts, planning, base.start);
    if (!choice || choice->fit.time > base.start ||
        choice->finish_bound > base.finish_bound) {
      return false;
    }
    profile.add_hold(choice->fit.time, choice->finish_bound,
                     choice->fit.plan);
  }
  return true;
}

// Why one kernel call at the baseline start B decides keeps_baseline for a
// single reservation in non-adaptive mode, where the candidate holds `take`
// over [now, end) with end > B (a candidate ending by B is accepted before
// any what-if):
//  - The profile holds only releases and holds that start at now (the
//    candidates accepted so far this pass), so after now it never
//    decreases: past now only adds remain.
//  - On such a profile a plan subtractable at its start stays subtractable
//    at every later row, so continuity cannot fail and the earliest window
//    fit is the first row at which the kernel admits the head. The held
//    profile is of the same kind (the hold's release lands at end > now).
//  - Feasibility (totals_admit, greedy_fits and greedy_capacity) is
//    monotone in every per-rack count and pool, the global tier, the GPUs
//    and the burst buffer: lowering any of them never turns a reject into
//    an admit.
//  - B is the first row admitting the head on the profile the baseline was
//    placed on, which had none of this pass's holds. Holds only lower rows,
//    so no row before B admits the head now, with or without the
//    candidate: the re-fit bounded by B starts at B exactly when the kernel
//    admits the head on the held row at B, which is the row at B minus
//    `take` (the hold covers B), and its plan there sets its finish bound.
bool head_keeps_baseline(const FreeProfile& profile, const Reservation& base,
                         const TakePlan& take, const SchedContext& ctx,
                         const PlacementPolicy& planning, ResourceState& state,
                         TakePlan& plan) {
  const Job& head = ctx.job(base.id);
  const ClusterConfig& config = ctx.cluster().config();
  state = profile.state_at(base.start);  // copy-assign: reuses the vectors
  apply_take(state, take);
  if (!totals_admit(state, config, head, planning) ||
      !compute_take(state, config, head, planning, plan)) {
    return false;
  }
  return base.start + head.walltime.scaled(dilation_of(ctx, head, plan)) <=
         base.finish_bound;
}

// Why head_totals_admit is head_keeps_baseline's first test without the
// take. That test is totals_admit on S - take, S the row at the head's
// start, and totals_admit reads four totals of it: the free burst buffer
// (only when the policy plans it and the head asks for some), the free
// nodes, and the global tier and the rack pools (each only when the routing
// may draw on it). Every plan compute_take builds for the candidate under
// `planning` takes exactly:
//  - the candidate's node count;
//  - its burst-buffer bytes when the policy plans that axis (and the head's
//    test reads the burst buffer only then);
//  - its far_bytes, d x nodes with d its per-node deficit, drawn only from
//    the tiers the routing may use: rack and neighbor pools unless
//    global-only, the global tier unless rack-only. tier_free_bytes sums
//    exactly those tiers for totals_admit, so the take lowers that sum by
//    far_bytes whichever tier paid.
// So the four totals of S - take, and with them the verdict, follow from S
// and the candidate alone.
bool head_totals_admit(const ResourceState& at_start,
                       const ClusterConfig& config, const Job& head,
                       const Job& cand, PlacementPolicy planning) {
  if (planning.axes.burst_buffer && head.bb_bytes > Bytes{0} &&
      at_start.bb_free < head.bb_bytes + cand.bb_bytes) {
    return false;
  }
  if (at_start.free_nodes_total < std::int64_t{head.nodes} + cand.nodes) {
    return false;
  }
  const __int128 need = far_bytes(config, head);
  return need == 0 ||
         tier_free_bytes(at_start, planning) - far_bytes(config, cand) >= need;
}

// Why a warm pass with one reservation judges only the jobs queued since the
// cached pass P. P armed the cache, so it started nothing: it passed over
// every candidate it judged, in queue order, and left no hold in the
// profile. This pass is fast: the sync was clean (no start, finish or
// migration since P, so the cluster is P's and no delta lies between P's now
// and this one), the queue only grew at its tail, the reserved head and its
// baseline are P's, and now >= P's now. A candidate P passed over gets P's
// verdict again (non-adaptive, one reservation):
//  - its plan at now reads only the row at now, which is P's row, so the
//    kernel, the headroom shield (same row, same plan) and the dilation
//    answer as they did;
//  - the early accept needs end_bound = now + dilated walltime by the
//    head's start, and end_bound only grows with now;
//  - head_keeps_baseline reads the row at the head's start, the plan and
//    the baseline, all P's, and not now or end_bound (end_bound still lies
//    past the head's start). A deeper what-if re-fits later reservations
//    around a hold that starts at now, which moved, so this is depth 1 only;
//  - a what-if accept that failed the live-ledger replan fails it again on
//    the same cluster.
// So a full pass would pass over P's candidates again. They still count
// against kBackfillWindow, which then covers the arrivals only if P reached
// the end of the queue.
void MemAwareEasyScheduler::schedule(SchedContext& ctx) {
  ++stats_.passes;
  const SimTime now = ctx.now();
  const ClusterConfig& config = ctx.cluster().config();

  // The planning policy: the context's placement narrowed to this
  // scheduler's axes. The memory-only instantiation plans blind to GPUs and
  // burst buffer; on machines that provision a blind axis every start must
  // be revalidated against the full ledger (plans may be wrong, starts never
  // are). On legacy machines `revalidate` is false and the planning policy
  // equals the context's, so this block changes nothing — byte-identical.
  PlacementPolicy planning = ctx.placement();
  planning.axes = options_.axes;
  const bool revalidate =
      (!options_.axes.gpus && config.has_gpus()) ||
      (!options_.axes.burst_buffer && config.has_burst_buffer());

  // A clean sync proves nothing moved since the last pass. If that pass
  // converged with a fully-armed cache, phases 1 and 2 are skipped: every
  // head fit and every baseline reservation sits at a release breakpoint or
  // a hold bound derived from one, all strictly beyond now, so recomputing
  // them from the identical state would reproduce them bit for bit.
  const bool clean = profile_.sync(ctx);
  const bool fast =
      clean && cache_valid_ && ctx.queue_order_stable() && now >= last_now_;
  cache_valid_ = false;
  bool any_start = false;
  if (fast) ++stats_.fast_passes;

  // Phase 3's verdict on one backfill candidate, leaving the profile as
  // found: the plan to start it with now, or nullptr to pass it over. The
  // candidate's plan on the profile is left in `take` and the end of the
  // hold an accept adds in `end_bound`. One scratch plan serves every
  // candidate (compute_take overwrites it), and one state and plan every
  // one-call what-if.
  TakePlan take;
  SimTime end_bound{};
  ResourceState what_if_state;
  TakePlan what_if_plan;
  std::optional<TakePlan> physical;
  // The verdict on a candidate whose totals admit it now: plan it at now,
  // then the shield, the dilation and the what-if.
  const auto judge_plan = [&](const Job& cand) -> const TakePlan* {
    {
      // The row at now, by reference: it dies at the profile's next query.
      const ResourceState& state_now = profile_.state_at(now);
      if (!compute_take(state_now, config, cand, planning, take)) {
        return nullptr;
      }
      // Tier-headroom shield: skip backfills that would drain a pool tier
      // below the configured reserve (kept for the protected queue front).
      if (options_.reserve_headroom > 0.0 && !take.far_per_node.is_zero() &&
          !leaves_tier_headroom(ctx, state_now, take,
                                options_.reserve_headroom)) {
        return nullptr;
      }
    }

    const double dil = dilation_of(ctx, cand, take);

    // Adaptive veto: skip a backfill that spills to the global tier when a
    // rack-pool-fed start later would finish sooner anyway.
    if (options_.adaptive && !take.global_total().is_zero()) {
      PlacementPolicy rack_only = planning;
      rack_only.routing = PoolRouting::kRackOnly;
      const auto alt = evaluate_fit(profile_, cand, ctx, rack_only);
      const SimTime now_finish = now + cand.walltime.scaled(dil);
      if (alt && alt->finish_bound.seconds() + options_.adaptive_margin_sec <
                     now_finish.seconds()) {
        return nullptr;
      }
    }

    end_bound = now + cand.walltime.scaled(dil);
    const auto mark = profile_.mark();
    // Fast path: a candidate that returns everything before the earliest
    // reservation begins cannot delay any reservation.
    bool accept = !baseline_.empty() && end_bound <= baseline_.front().start;
    if (!accept && baseline_.size() == 1 && !options_.adaptive) {
      // One reservation: one kernel call at its start decides the what-if
      // (head_keeps_baseline), so the candidate is held only if accepted.
      accept = head_keeps_baseline(profile_, baseline_.front(), take, ctx,
                                   planning, what_if_state, what_if_plan);
#ifndef NDEBUG
      // Shadow: the bounded re-fit with the candidate held agrees.
      profile_.add_hold(now, end_bound, take);
      DMSCHED_ASSERT(
          keeps_baseline(profile_, baseline_, ctx, options_, planning) ==
              accept,
          "mem-easy: the one-call what-if disagrees with the re-fit");
      profile_.rollback(mark);
#endif
    } else if (!accept) {
      // What-if: re-fit the reservations with the candidate held and
      // require that none is delayed.
      profile_.add_hold(now, end_bound, take);
      const auto what_if_mark = profile_.mark();
      accept = keeps_baseline(profile_, baseline_, ctx, options_, planning);
      profile_.rollback(what_if_mark);
#ifndef NDEBUG
      // Shadow: the full recompute of every reservation reaches the same
      // verdict.
      const std::vector<Reservation> fresh =
          place_reservations(profile_, reserved_jobs_, ctx, options_, planning);
      profile_.rollback(what_if_mark);
      DMSCHED_ASSERT(no_regression(baseline_, fresh) == accept,
                     "mem-easy: the bounded what-if disagrees with the full "
                     "recompute");
#endif
      profile_.rollback(mark);
    }
    if (!accept) return nullptr;
    if (!revalidate) return &take;
    // Replan against the live ledger with every axis on: a blind backfill
    // must not start on an exhausted GPU rack or a full burst buffer.
    physical = compute_take(snapshot(ctx.cluster()), config, cand,
                            ctx.placement());
    return physical ? &*physical : nullptr;
  };
  // The row at now for the totals test. Nothing queries or mutates the
  // profile between two candidates the test rejects, so the reference
  // lives until a candidate passes it; it is looked up again after that.
  const ResourceState* row_now = nullptr;
  const auto backfill_plan = [&](const Job& cand) -> const TakePlan* {
    if (row_now == nullptr) row_now = &profile_.state_at(now);
    if (!totals_admit(*row_now, config, cand, planning)) return nullptr;
    row_now = nullptr;
    // The what-if before the plan. With one reservation at B and no
    // adaptive mode, a candidate with now + walltime > B ends past B at any
    // dilation (dilation >= 1 and SimTime::scaled rounds monotonically), so
    // the fast accept cannot take it and head_keeps_baseline decides. That
    // call's first test is head_totals_admit on the row at B (proof there),
    // so a reject needs no plan.
    if (baseline_.size() == 1 && !options_.adaptive) {
      const Reservation& base = baseline_.front();
      if (now + cand.walltime > base.start &&
          !head_totals_admit(profile_.state_at(base.start), config,
                             ctx.job(base.id), cand, planning)) {
#ifndef NDEBUG
        // Shadow: the planned path passes the candidate over too.
        DMSCHED_ASSERT(judge_plan(cand) == nullptr,
                       "mem-easy: the plan-free what-if rejects a candidate "
                       "the planned path starts");
#endif
        return nullptr;
      }
    }
    return judge_plan(cand);
  };

  // The backfill candidates, and how many of them count as judged already.
  std::vector<JobId> candidates;
  std::size_t examined = 0;
  if (fast && baseline_.size() == 1) {
    // Only the jobs queued since the cached pass need judging (proof above).
    candidates = ctx.queued_jobs_after(tail_epoch_);
    examined = judged_;
#ifndef NDEBUG
    // Shadow: the queue is the reserved prefix, the candidates the cached
    // pass judged and (once it reached the queue's end) the arrivals, and a
    // full pass would pass over every skipped candidate again.
    const std::vector<JobId> queue = ctx.queued_jobs();
    const std::size_t depth = reserved_jobs_.size();
    DMSCHED_ASSERT(queue.size() >= depth + judged_ + candidates.size() &&
                       std::equal(reserved_jobs_.begin(), reserved_jobs_.end(),
                                  queue.begin()) &&
                       std::equal(candidates.rbegin(), candidates.rend(),
                                  queue.rbegin()) &&
                       (judged_ >= kBackfillWindow ||
                        queue.size() == depth + judged_ + candidates.size()),
                   "mem-easy: the arrivals are not the queue's new tail");
    for (std::size_t i = depth; i < depth + judged_; ++i) {
      DMSCHED_ASSERT(backfill_plan(ctx.job(queue[i])) == nullptr,
                     "mem-easy: a warm pass skipped a candidate it would "
                     "start");
    }
#endif
  } else {
    std::vector<JobId> queue = ctx.queued_jobs();
    std::size_t qi = 0;
    if (!fast) {
      profile_.drop_holds();

      // Phase 1: start from the head while the chosen fit is "now". The
      // profile is re-synced after every start (the start changed the base
      // state, so the sync rebuilds).
      std::optional<FitChoice> head_fit;
      while (qi < queue.size()) {
        const Job& head = ctx.job(queue[qi]);
        ++stats_.jobs_examined;
        ++stats_.plans_attempted;
        head_fit = choose_fit(profile_, head, ctx, options_, planning);
        DMSCHED_ASSERT(head_fit.has_value(),
                       "mem-easy: admitted head job has no fit at drain");
        if (head_fit->fit.time > now) break;
        if (revalidate) {
          // The blind plan says "now", but an unplanned axis may be
          // exhausted; replan against the live ledger with every axis on.
          // A failed replan means the head is physically blocked — it
          // waits.
          auto alloc = plan_start(ctx.cluster(), head, ctx.placement());
          if (!alloc) break;
          ctx.start_job(queue[qi], *alloc);
        } else {
          const Allocation alloc =
              materialize(ctx.cluster(), head, head_fit->fit.plan);
          ctx.start_job(queue[qi], alloc);
        }
        any_start = true;
        profile_.sync(ctx);
        ++qi;
      }
      if (qi >= queue.size()) return;

      // Phase 2: the first K blocked jobs receive protected reservations
      // (EASY-K; K=1 is classic EASY). `profile_` carries only releases and
      // accepted backfills; reservations are recomputed from it on demand
      // so candidate what-if checks can rebuild them cheaply.
      const std::size_t depth =
          std::min(options_.reservation_depth, queue.size() - qi);
      reserved_jobs_.assign(
          queue.begin() + static_cast<std::ptrdiff_t>(qi),
          queue.begin() + static_cast<std::ptrdiff_t>(qi + depth));
      const auto baseline_mark = profile_.mark();
      // The blocked head's reservation is phase 1's last fit: the same
      // choose_fit call on the same profile, since nothing started after it.
#ifndef NDEBUG
      // Shadow: refitting the head gives the same fit and finish bound.
      const auto refit = choose_fit(profile_, ctx.job(reserved_jobs_.front()),
                                    ctx, options_, planning);
      DMSCHED_ASSERT(refit && refit->fit.time == head_fit->fit.time &&
                         refit->fit.plan == head_fit->fit.plan &&
                         refit->finish_bound == head_fit->finish_bound,
                     "mem-easy: the blocked head refits elsewhere");
#endif
      baseline_.assign(
          1, hold_reservation(profile_, reserved_jobs_.front(), *head_fit));
      const std::vector<Reservation> rest = place_reservations(
          profile_, std::span<const JobId>(reserved_jobs_).subspan(1), ctx,
          options_, planning);
      baseline_.insert(baseline_.end(), rest.begin(), rest.end());
      profile_.rollback(baseline_mark);
    }
    // Fast pass: heads are still blocked and baseline_/reserved_jobs_ are
    // exactly what phases 1–2 would recompute; qi stays 0 because nothing
    // left the queue since.

    // Phase 3 examines everything behind the reserved prefix.
    const std::size_t depth = reserved_jobs_.size();
    DMSCHED_ASSERT(queue.size() >= qi + depth &&
                       std::equal(reserved_jobs_.begin(), reserved_jobs_.end(),
                                  queue.begin() +
                                      static_cast<std::ptrdiff_t>(qi)),
                   "mem-easy: cached reserved prefix diverged from the queue");
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(qi + depth));
    candidates = std::move(queue);
    switch (options_.order) {
      case BackfillOrder::kQueueOrder:
        break;
      case BackfillOrder::kShortestFirst:
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](JobId a, JobId b) {
                           return ctx.job(a).walltime < ctx.job(b).walltime;
                         });
        break;
      case BackfillOrder::kBestMemFit:
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](JobId a, JobId b) {
                           const Bytes local = config.local_mem_per_node;
                           const Bytes da =
                               ctx.job(a).mem_per_node -
                               min(ctx.job(a).mem_per_node, local);
                           const Bytes db =
                               ctx.job(b).mem_per_node -
                               min(ctx.job(b).mem_per_node, local);
                           return da > db;  // hardest-to-place first
                         });
        break;
    }
  }

  // Phase 3: examine backfill candidates, at most kBackfillWindow of them.
  for (const JobId cid : candidates) {
    if (examined >= kBackfillWindow) break;
    ++examined;
    ++stats_.jobs_examined;
    ++stats_.plans_attempted;
    const Job& cand = ctx.job(cid);
    const TakePlan* plan = backfill_plan(cand);
    if (plan == nullptr) continue;
    profile_.add_hold(now, end_bound, take);
    ctx.start_job(cid, materialize(ctx.cluster(), cand, *plan));
    any_start = true;
  }

  // Arm the cache only where the phase-1/2 skip is a proof (see header):
  // nothing started (so the timeline version still matches the sync), queue
  // order is append-stable and candidates are walked in it, non-adaptive
  // (loser-fit comparisons are not time-shift-invariant), the reservation
  // window is fully populated (a new arrival must never become reserved),
  // and every baseline reservation starts strictly after now. The judged
  // count and the queue token let a depth-1 warm pass skip the candidates
  // judged so far.
  if (!any_start && ctx.queue_order_stable() &&
      options_.order == BackfillOrder::kQueueOrder && !options_.adaptive &&
      reserved_jobs_.size() == options_.reservation_depth &&
      std::all_of(baseline_.begin(), baseline_.end(),
                  [&](const Reservation& r) { return r.start > now; })) {
    cache_valid_ = true;
    judged_ = examined;
    tail_epoch_ = ctx.queue_tail_epoch();
  }
  last_now_ = now;
}

}  // namespace dmsched
