#include "sched/conservative.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dmsched {

void ConservativeScheduler::schedule(SchedContext& ctx) {
  ++stats_.passes;
  const SimTime now = ctx.now();
  const bool clean = profile_.sync(ctx);

  // Fast pass: nothing moved since the last pass, so every retained
  // reservation is exactly what recomputing it would yield (its start time
  // is a breakpoint, none of which crossed now) — only arrivals since the
  // cached tail epoch still need a slot. Anything else (resource movement,
  // re-ranked queue order) falls back to recomputing every reservation
  // against a freshly synced profile.
  std::vector<JobId> todo;
  const bool fast = clean && cache_valid_ && ctx.queue_order_stable() &&
                    now >= last_now_;
  if (fast) {
    ++stats_.fast_passes;
    todo = ctx.queued_jobs_after(tail_epoch_);
  } else {
    profile_.drop_holds();
    reserved_ = 0;
    todo = ctx.queued_jobs();
  }

  bool any_start = false;
  for (JobId id : todo) {
    if (reserved_ >= kWindow) break;
    ++reserved_;
    ++stats_.jobs_examined;
    ++stats_.plans_attempted;  // every examined job gets a window fit
    const Job& job = ctx.job(id);
    const auto walltime_bound = [&](const TakePlan& plan) {
      const double dilation = ctx.slowdown().dilation_bytes(
          plan.rack_pool_total(), plan.neighbor_pool_total(),
          plan.global_total(), job.total_mem(), job.sensitivity);
      return job.walltime.scaled(dilation);
    };
    // Window fitting: the reservation must be feasible for the job's whole
    // (dilated) walltime against every earlier reservation, not just at its
    // start instant — that is what makes this scheduler conservative.
    const auto fit =
        profile_.earliest_fit_window(job, ctx.placement(), walltime_bound);
    // Admitted jobs always fit once everything drains (final profile state
    // has every hold expired and every running job released).
    DMSCHED_ASSERT(fit.has_value(),
                   "conservative: admitted job has no reservation");

    if (fit->time <= now) {
      auto alloc = plan_start(ctx.cluster(), job, ctx.placement());
      DMSCHED_ASSERT(alloc.has_value(),
                     "conservative: profile said 'fits now' but the planner "
                     "disagrees");
      ctx.start_job(id, *alloc);
      any_start = true;
      // Hold the plan the job actually started with, not fit->plan: the live
      // planner may distribute racks differently (an overdue release makes
      // the profile more optimistic than the ledger), and a hold that
      // disagrees with the ledger mis-prices every later reservation in this
      // pass. The bound follows the started plan's dilation too, matching
      // the engine's expected release.
      const TakePlan started = take_from(*alloc, ctx.cluster().config());
      profile_.add_hold(now, now + walltime_bound(started), started);
    } else {
      profile_.add_hold(fit->time, fit->time + walltime_bound(fit->plan),
                        fit->plan);
    }
  }

  cache_valid_ = !any_start && ctx.queue_order_stable();
  tail_epoch_ = ctx.queue_tail_epoch();
  last_now_ = now;
}

}  // namespace dmsched
