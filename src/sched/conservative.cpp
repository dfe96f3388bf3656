#include "sched/conservative.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dmsched {

void ConservativeScheduler::Ledger::push(JobId job, SimTime time, SimTime end,
                                         const TakePlan& plan) {
  if (count == slots.size()) slots.emplace_back();
  Reservation& r = slots[count++];
  r.job = job;
  r.time = time;
  r.end = end;
  r.plan = plan;  // copy-assign: reuses the slot's storage
}

std::optional<SimTime> ConservativeScheduler::completion_gate(
    const SchedContext& ctx) const {
  const AvailabilityTimeline& tl = *ctx.timeline();
  const auto& entries = tl.entries();
  // Every start and every finish bumps the version by one and moves the
  // entry count by one, so the version moved by exactly the count's fall
  // only when nothing was added: the entries are running_ with some
  // removed, in the same order. (A re-tiered job is finished and started
  // again, which is an addition.)
  if (tl.id() != running_timeline_ || ctx.now() < last_now_ ||
      entries.size() > running_.size() ||
      tl.version() - running_version_ != running_.size() - entries.size()) {
    return std::nullopt;
  }
  SimTime gate = ctx.now();
  std::size_t k = 0;
  for (const auto& [id, end] : running_) {
    if (k < entries.size() && entries[k].id == id) {
      ++k;
    } else {
      gate = max(gate, end);
    }
  }
  DMSCHED_ASSERT(k == entries.size(),
                 "conservative: the running set gained a job unseen");
  return gate;
}

// Why a full pass may keep a reservation unswept. Let P be the last pass
// (a fast pass extends the pass before it), and suppose the running set
// changed since P only by completions, the set C (an own start that
// already finished is one of them), and P's own starts, the set S
// (completion_gate checks this). A start s of P is now a running job
// released at end_s with take_s, the hold P gave it (Debug asserts both
// after each start). Candidate i is fitted on the releases plus the holds
// of the candidates before it. If each of those holds what it held in P,
// then, states being integer counts, for every t >= now:
//   here_i(t) - P_i(t) = sum of take_r over r in C with end_r > t
//                      - sum of take_s over s in S after i with end_s > t
// (an own start before i was a hold at P's now in P_i and is a running
// job here: the same rows from now on). So with gate_i = max(now, end_r
// over C, end_s over S after i), the state at every t >= gate_i is the
// same here as in P_i, and so are the deltas after gate_i.
//
// Let P's fit for i be (t_i, plan_i) with t_i >= gate_i. P's reservations
// are always its sweep's answer (each was swept, or kept by this
// argument), so t_i was P's first fitting start. Each start t of the
// sweep here with gate_i <= t < t_i fails:
//  - if P examined t, the plan built there and the rows its window walks
//    (all after gate_i) are the same as in P, where it failed;
//  - if not, let t' be P's last start before t: no row of P lies in
//    (t', t], so t reads P's state at t' and builds the same plan, and the
//    row where t' failed lies after t and before t' + duration, inside
//    t's window.
// If also no start before gate_i fits, t_i is a start here and fits with
// plan_i: past gate_i it is a delta of P, hence one here, and at
// gate_i > now without a row here the start before it would read the
// same state over the same rows and fit before gate_i. So the sweep's
// answer is (t_i, plan_i) unless a start before gate_i fits, which is
// what earliest_fit_window bounded by gate_i - 1 us decides, its fit then
// the answer. A reservation at now (t_i == gate_i == now) is the fit
// (now, plan_i); the job starts on plan_start's live plan like any
// start, which may differ. Each candidate's held answer is compared with
// P's; once one differs, or the queue departs from P's order, the premise
// fails and the rest of the pass sweeps in full. Debug builds sweep every
// kept candidate unbounded and assert the same start, plan and end.
void ConservativeScheduler::schedule(SchedContext& ctx) {
  ++stats_.passes;
  const SimTime now = ctx.now();
  const bool clean = profile_.sync(ctx);

  // Fast pass: nothing moved since the last pass, so every retained
  // reservation is exactly what recomputing it would yield (its start time
  // is a breakpoint, none of which crossed now) — only arrivals since the
  // cached tail epoch still need a slot. Anything else (resource movement,
  // re-ranked queue order) replans every reservation in queue order.
  std::vector<JobId> todo;
  std::optional<SimTime> gate;
  std::size_t prior = 0;  // the last pass's reservations, reserved_[0, prior)
  const bool fast = clean && cache_valid_ && ctx.queue_order_stable() &&
                    now >= last_now_;
  if (fast) {
    ++stats_.fast_passes;
    todo = ctx.queued_jobs_after(tail_epoch_);
  } else {
    gate = completion_gate(ctx);
    profile_.drop_holds();
    prior = reserved_.count;
    reserved_.count = 0;
    later_start_end_.assign(prior + 1, SimTime{});
    for (std::size_t k = prior; k-- > 0;) {
      const Reservation& r = reserved_.slots[k];
      later_start_end_[k] = r.time == last_now_
                                ? max(r.end, later_start_end_[k + 1])
                                : later_start_end_[k + 1];
    }
    todo = ctx.queued_jobs();
  }

  // While `standing`, every candidate so far holds what it held in the
  // last pass, and reserved_[next] is the next old reservation to match.
  // The new ones overwrite the old in place: each candidate consumes at
  // least one old slot while standing, so it writes only slots read.
  bool standing = gate.has_value();
  std::size_t next = 0;
  bool any_start = false;
  for (JobId id : todo) {
    if (reserved_.count >= kWindow) break;
    ++stats_.jobs_examined;
    const Job& job = ctx.job(id);
    const auto walltime_bound = [&](const TakePlan& plan) {
      return job.walltime.scaled(ctx.slowdown().dilation_for(plan, job));
    };

    const Reservation* old = nullptr;
    SimTime old_gate{};
    if (standing) {
      while (next < prior && reserved_.slots[next].time == last_now_) {
        ++next;  // the last pass started it
      }
      if (next < prior && reserved_.slots[next].job == id) {
        old = &reserved_.slots[next++];
        old_gate = max(*gate, later_start_end_[next]);
      }
    }
    // Window fitting: the reservation must be feasible for the job's whole
    // (dilated) walltime against every earlier reservation, not just at its
    // start instant — that is what makes this scheduler conservative.
    std::optional<FreeProfile::Fit> fit;
    bool kept = old != nullptr && old->time >= old_gate;
    if (kept && old->time > now) {
      fit = profile_.earliest_fit_window(job, ctx.placement(), walltime_bound,
                                         old_gate - usec(1));
      kept = !fit.has_value();
    }
    if (!kept) {
      ++stats_.plans_attempted;
      if (!fit) {
        fit = profile_.earliest_fit_window(job, ctx.placement(),
                                           walltime_bound);
      }
      // Admitted jobs always fit once everything drains (final profile
      // state has every hold expired and every running job released).
      DMSCHED_ASSERT(fit.has_value(),
                     "conservative: admitted job has no reservation");
    }
#ifndef NDEBUG
    if (kept) {
      const auto swept =
          profile_.earliest_fit_window(job, ctx.placement(), walltime_bound);
      DMSCHED_ASSERT(swept.has_value() && swept->time == old->time &&
                         swept->plan == old->plan &&
                         swept->time + walltime_bound(swept->plan) == old->end,
                     "conservative: a kept reservation is not the sweep's fit");
    }
#endif

    SimTime start = kept ? old->time : fit->time;
    SimTime end{};
    const TakePlan* plan = nullptr;
    TakePlan started;
    if (start <= now) {
      auto alloc = plan_start(ctx.cluster(), job, ctx.placement());
      DMSCHED_ASSERT(alloc.has_value(),
                     "conservative: profile said 'fits now' but the planner "
                     "disagrees");
      ctx.start_job(id, *alloc);
      any_start = true;
      // Hold the plan the job actually started with, not the fit's: the live
      // planner may distribute racks differently (an overdue release makes
      // the profile more optimistic than the ledger), and a hold that
      // disagrees with the ledger mis-prices every later reservation in this
      // pass. The bound follows the started plan's dilation too, matching
      // the engine's expected release.
      started = take_from(*alloc, ctx.cluster().config());
      start = now;
      end = now + walltime_bound(started);
      plan = &started;
#ifndef NDEBUG
      const auto& running = ctx.timeline()->entries();
      const auto it = std::find_if(
          running.begin(), running.end(),
          [id](const RunningJob& r) { return r.id == id; });
      DMSCHED_ASSERT(it != running.end() && it->expected_end == end &&
                         it->take == started,
                     "conservative: a start's hold differs from the timeline");
#endif
    } else if (kept) {
      end = old->end;
      plan = &old->plan;
    } else {
      end = start + walltime_bound(fit->plan);
      plan = &fit->plan;
    }
    standing = old != nullptr && start == old->time && end == old->end &&
               *plan == old->plan;
    reserved_.push(id, start, end, *plan);  // may overwrite *old: read last
    const Reservation& made = reserved_.slots[reserved_.count - 1];
    profile_.add_hold(made.time, made.end, made.plan);
  }

  cache_valid_ = !any_start && ctx.queue_order_stable();
  tail_epoch_ = ctx.queue_tail_epoch();
  last_now_ = now;
  const AvailabilityTimeline& tl = *ctx.timeline();
  if (tl.id() != running_timeline_ || tl.version() != running_version_) {
    running_.clear();
    for (const RunningJob& r : tl.entries()) {
      running_.emplace_back(r.id, r.expected_end);
    }
    running_timeline_ = tl.id();
    running_version_ = tl.version();
  }
}

}  // namespace dmsched
