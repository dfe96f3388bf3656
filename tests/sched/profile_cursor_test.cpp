// Differential test of FreeProfile's row cursor: earliest_fit_window and
// state_at against the brute-force breakpoint sweep of
// testing/profile_oracle.hpp, on randomized profiles.
//
// The op mix is chosen to hit every way the cursor can go wrong:
//  - future-start holds, so availability is non-monotone and the
//    continuity walk matters;
//  - mark()/rollback() between queries, so cache truncation lands in the
//    middle of rows an earlier sweep built;
//  - overdue releases (before now), folded into the state at now;
//  - holds starting exactly at a release time (an add and a subtract at
//    one instant, folded into one row);
//  - queries of every horizon in random order, so the lazily built rows
//    grow across calls and in the middle of a sweep.
// A cursor that skips a row or reads a row state from before the cache
// grew returns a different start or plan than the oracle.
//
// ProfileRepeats blocks the rack a job's plan starts on with a hold in the
// middle of its windows, so consecutive candidates rebuild a plan that
// fails continuity at the same row: the rows a window fit skips without
// rebuilding the plan. A skip that reuses a plan the kernel would no
// longer build, or that skips past the row where the plan failed, returns
// a different start or plan than the oracle.
//
// ProfileDrained holds every free node over stretches of time, so a
// candidate's plan fails continuity at a row whose totals admit no job at
// all: later candidates whose every window covers that row are rejected
// without planning them. A rule that rejects a candidate whose shortest
// window ends exactly on the drained row, or one that starts past it,
// returns a later start than the oracle (or none).
//
// ProfileBound stops window fits at a latest start (`not_after`): before
// now, on a breakpoint, between two, at the unbounded fit's start, just
// before it, and at kTimeInfinity. The bounded fit must be the oracle's
// when that starts in bound, and nullopt otherwise.
//
// ProfileNoFutureTake queries profiles where no hold starts after now:
// releases only, and releases with holds that start at now (mem-easy's
// accepted backfills). There window fits return the first row the kernel
// admits without walking the window, so each fit must also be the oracle's
// instantaneous fit. A hold that starts after now must still move the fit
// past the row where it breaks the window, and the first-row answer must
// come back once that hold is rolled back: a count of future takes that
// drifts either way returns another start than the oracle. A mark that
// splits a hold is refused.
//
// ProfileRows re-syncs one FreeProfile against two machines of different
// shapes, so rows and delta slots left over from one are overwritten with
// the other's states: a reused row that keeps a stale vector length or value
// disagrees with the oracle.
//
// ProfileFold checks holds folded into the grown rows. A hold that starts
// after now changes only the rows in its window, so they take its plan, a
// row is inserted at its start and its end where none sits, and every
// later row only moves its consumed count; a hold at now, a rollback and
// drop_holds still truncate. A fold that takes the plan on one row too
// many, or leaves a later row's consumed count short (so the next grown
// row folds the wrong deltas), disagrees with the oracle's state at some
// breakpoint. The random walk interleaves holds at now and in the future
// (starting and ending on breakpoints and between them, some ending past
// every breakpoint and so past the grown frontier) with rollbacks to real
// marks, drop_holds, point probes at random instants (which grow the rows
// to a random frontier) and window fits; two named cases pin a hold ending
// exactly on a grown row and a hold starting before the first grown row.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "memory/placement.hpp"
#include "sched/profile.hpp"
#include "testing/builders.hpp"
#include "testing/fake_context.hpp"
#include "testing/profile_oracle.hpp"

namespace dmsched {
namespace {

using testing::ProfileOracle;

constexpr NodeSelection kSelections[] = {
    NodeSelection::kFirstFit, NodeSelection::kPackRacks,
    NodeSelection::kSpreadRacks, NodeSelection::kPoolAware};
constexpr PoolRouting kRoutings[] = {
    PoolRouting::kRackOnly, PoolRouting::kRackThenGlobal,
    PoolRouting::kGlobalOnly, PoolRouting::kRackNeighborGlobal};

/// Delta times come from a coarse grid so equal times are common.
constexpr std::int64_t kStepSec = 1800;

ClusterConfig random_machine(Rng& rng) {
  ClusterConfig c;
  c.name = "cursor";
  c.nodes_per_rack = static_cast<std::int32_t>(rng.uniform_int(2, 6));
  c.total_nodes =
      c.nodes_per_rack * static_cast<std::int32_t>(rng.uniform_int(1, 5));
  c.local_mem_per_node = gib(rng.uniform_int(32, 128));
  c.pool_per_rack = gib(rng.uniform_int(0, 256));
  c.global_pool = rng.bernoulli(0.6) ? gib(rng.uniform_int(0, 512))
                                     : Bytes{0};
  return c;
}

Job random_job(Rng& rng, const ClusterConfig& c) {
  return testing::job(0)
      .nodes(static_cast<std::int32_t>(
          rng.uniform_int(1, (c.total_nodes + 1) / 2)))
      .mem_gib(static_cast<double>(rng.uniform_int(
          8, 2 * c.local_mem_per_node.count() / kGiB.count())));
}

struct Counts {
  int queries = 0;
  int later_than_instant = 0;  // the continuity walk moved the start
  int nullopts = 0;
  int tie_holds = 0;  // holds starting exactly at a release time
  int overdue = 0;
  int rollbacks = 0;
};

void run_round(Rng& rng, Counts& counts) {
  const ClusterConfig c = random_machine(rng);
  const PlacementPolicy policy{
      kSelections[rng.uniform_int(0, 3)], kRoutings[rng.uniform_int(0, 3)]};
  const SimTime now = seconds(kStepSec * rng.uniform_int(4, 8));
  const auto grid = [&](std::int64_t lo, std::int64_t hi) {
    return now + seconds(kStepSec * rng.uniform_int(lo, hi));
  };

  // A partly busy machine whose jobs come back as releases; some overdue.
  ResourceState busy = empty_state(c);
  std::vector<std::pair<SimTime, TakePlan>> running;
  for (int k = 0; k < 6; ++k) {
    const auto plan = compute_take(busy, c, random_job(rng, c), policy);
    if (!plan) continue;
    apply_take(busy, *plan);
    running.emplace_back(grid(-3, 16), *plan);
  }
  // The late releases below return jobs planned on an idle `c` that the
  // base never counted: they run on the deeper machine's extra capacity.
  const ClusterConfig deep = testing::deepened(c, 64);
  ProfileOracle p(busy, now, &deep);
  std::vector<SimTime> release_times;
  for (const auto& [t, plan] : running) {
    p.add_release(t, plan);
    release_times.push_back(t);
    if (t < now) ++counts.overdue;
  }

  // Dilation-like durations: the plan's far-memory mix changes the window.
  const SimTime base_len = seconds(kStepSec * rng.uniform_int(1, 6));
  const auto duration_of = [&](const TakePlan& plan) {
    return plan.global_total() > Bytes{0} ? base_len + seconds(kStepSec / 2)
                                          : base_len;
  };
  const auto instant = [](const TakePlan&) { return SimTime{}; };

  std::vector<FreeProfile::Mark> marks;
  for (int step = 0; step < 60; ++step) {
    const double r = rng.uniform();
    if (r < 0.35) {
      const Job j = random_job(rng, c);
      const auto got = p.profile().earliest_fit_window(j, policy, duration_of);
      const auto want = p.earliest_fit_window(j, policy, duration_of);
      ++counts.queries;
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (!got) {
        ++counts.nullopts;
        continue;
      }
      EXPECT_EQ(got->time, want->time) << "step " << step;
      EXPECT_EQ(got->plan, want->plan) << "step " << step;
      const auto now_fit = p.earliest_fit_window(j, policy, instant);
      if (now_fit && now_fit->time < want->time) ++counts.later_than_instant;
    } else if (r < 0.45) {
      const Job j = random_job(rng, c);
      const auto got = p.profile().earliest_fit_window(j, policy, instant);
      const auto want = p.earliest_fit(j, policy);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got) {
        EXPECT_EQ(got->time, want->time) << "step " << step;
        EXPECT_EQ(got->plan, want->plan) << "step " << step;
      }
    } else if (r < 0.55) {
      // Point probe at an arbitrary instant, in random order.
      const SimTime t = grid(0, 24) + seconds(rng.uniform_int(0, 1));
      const ResourceState got = p.profile().state_at(t);
      const ResourceState want = p.state_at(t);
      EXPECT_EQ(got.free_nodes, want.free_nodes) << "step " << step;
      EXPECT_EQ(got.pool_free, want.pool_free) << "step " << step;
      EXPECT_EQ(got.global_free, want.global_free) << "step " << step;
      EXPECT_TRUE(p.keeps_totals_at(t)) << "step " << step;
    } else if (r < 0.80) {
      // A hold, placed like a reservation (the oracle's window fit) or at
      // a chosen start — often a release time — when it stays feasible.
      const Job j = random_job(rng, c);
      const SimTime len = seconds(kStepSec * rng.uniform_int(1, 8));
      if (rng.bernoulli(0.5)) {
        const auto fit = p.earliest_fit_window(
            j, policy, [&](const TakePlan&) { return len; });
        if (fit) p.add_hold(fit->time, fit->time + len, fit->plan);
        continue;
      }
      const bool tie = !release_times.empty() && rng.bernoulli(0.5);
      SimTime start =
          tie ? release_times[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(release_times.size()) - 1))]
              : grid(0, 12);
      if (start < now) start = now;
      const auto plan = compute_take(p.state_at(start), c, j, policy);
      if (!plan) continue;
      bool feasible = true;
      for (const SimTime u : p.breakpoints()) {
        if (u > start && u < start + len) {
          feasible = feasible && can_apply(p.state_at(u), *plan);
        }
      }
      if (!feasible) continue;
      p.add_hold(start, start + len, *plan);
      if (tie && start > now) ++counts.tie_holds;
    } else if (r < 0.87) {
      // A late release, sometimes overdue.
      const auto plan =
          compute_take(empty_state(c), c, random_job(rng, c), policy);
      if (!plan) continue;
      const SimTime t = grid(-2, 16);
      p.add_release(t, *plan);
      release_times.push_back(t);
      if (t < now) ++counts.overdue;
    } else if (r < 0.94 || marks.empty()) {
      marks.push_back(p.mark());
    } else {
      // Back to a random earlier mark: truncates rows mid-cache.
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(marks.size()) - 1));
      p.rollback(marks[at]);
      marks.resize(at);
      ++counts.rollbacks;
    }
  }
}

TEST(ProfileCursor, MatchesBreakpointSweepOnRandomProfiles) {
  Rng rng(20261016);
  Counts counts;
  for (int round = 0; round < 150; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    run_round(rng, counts);
    if (HasFatalFailure()) return;
  }
  // Every hazard the cursor must survive was actually exercised.
  EXPECT_GT(counts.queries, 2000);
  EXPECT_GT(counts.later_than_instant, 100);
  EXPECT_GT(counts.nullopts, 10);
  EXPECT_GT(counts.tie_holds, 50);
  EXPECT_GT(counts.overdue, 50);
  EXPECT_GT(counts.rollbacks, 100);
}

// --- Candidates that repeat a failing plan -----------------------------------

/// Candidates of the oracle's plain sweep that rebuild the previous
/// candidate's plan while its window still covers the breakpoint where
/// that plan failed: the candidates a window fit may skip.
template <class DurationFn>
int repeated_failures(const ProfileOracle& p, const ClusterConfig& c,
                      const Job& job, PlacementPolicy policy,
                      DurationFn&& duration_of) {
  const std::vector<SimTime> points = p.breakpoints();
  int repeats = 0;
  std::optional<TakePlan> last;
  std::size_t last_failed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto plan = compute_take(p.state_at(points[i]), c, job, policy);
    if (!plan) {
      last.reset();
      continue;
    }
    const SimTime end = points[i] + duration_of(*plan);
    std::size_t failed = i + 1;
    while (failed < points.size() && points[failed] < end &&
           can_apply(p.state_at(points[failed]), *plan)) {
      ++failed;
    }
    if (failed == points.size() || points[failed] >= end) return repeats;
    if (last && *last == *plan && last_failed > i) ++repeats;
    last = std::move(plan);
    last_failed = failed;
  }
  return repeats;
}

TEST(ProfileRepeats, BlockedRackMatchesBreakpointSweep) {
  Rng rng(20261018);
  int queries = 0;
  int skippable[4][4] = {};  // per selection and routing
  for (int round = 0; round < 150; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ClusterConfig c = random_machine(rng);
    c.total_nodes = c.nodes_per_rack * static_cast<std::int32_t>(
                                           rng.uniform_int(3, 8));
    const SimTime now = seconds(kStepSec * 4);
    const auto grid = [&](std::int64_t lo, std::int64_t hi) {
      return now + seconds(kStepSec * rng.uniform_int(lo, hi));
    };
    for (std::size_t si = 0; si < 4; ++si) {
      for (std::size_t ri = 0; ri < 4; ++ri) {
        const PlacementPolicy policy{kSelections[si], kRoutings[ri]};
        // Running jobs spread over the racks, released on a fine grid so
        // windows hold many candidate rows.
        ResourceState busy = empty_state(c);
        std::vector<std::pair<SimTime, TakePlan>> running;
        for (int k = 0; k < 10; ++k) {
          const auto plan = compute_take(busy, c, random_job(rng, c), policy);
          if (!plan) continue;
          apply_take(busy, *plan);
          running.emplace_back(grid(0, 12), *plan);
        }
        ProfileOracle p(busy, now, &c);
        for (const auto& [t, plan] : running) p.add_release(t, plan);

        const SimTime len = seconds(kStepSec * rng.uniform_int(3, 8));
        const auto duration_of = [&](const TakePlan& plan) {
          return plan.global_total() > Bytes{0} ? len + seconds(kStepSec / 2)
                                                : len;
        };
        for (int k = 0; k < 6; ++k) {
          const Job j = random_job(rng, c);
          // Block the rack this job's plan starts on, from a start inside
          // its window: every candidate before the block that rebuilds the
          // plan fails there.
          const auto first = p.earliest_fit(j, policy);
          if (first && !first->plan.takes.empty()) {
            const auto r =
                static_cast<std::size_t>(first->plan.takes.front().rack);
            const SimTime from = first->time + seconds(kStepSec *
                                                       rng.uniform_int(1, 4));
            const SimTime to = from + seconds(kStepSec * rng.uniform_int(1, 6));
            // Take the rack's nodes that stay free over the whole block.
            std::int32_t nodes = p.state_at(from).free_nodes[r];
            for (const SimTime u : p.breakpoints()) {
              if (u > from && u < to) {
                nodes = std::min(nodes, p.state_at(u).free_nodes[r]);
              }
            }
            if (nodes > 0) {
              TakePlan block;
              block.takes.push_back({static_cast<RackId>(r), nodes});
              p.add_hold(from, to, block);
            }
          }
          const auto got =
              p.profile().earliest_fit_window(j, policy, duration_of);
          const auto want = p.earliest_fit_window(j, policy, duration_of);
          ++queries;
          ASSERT_EQ(got.has_value(), want.has_value()) << "query " << k;
          if (!got) continue;
          EXPECT_EQ(got->time, want->time) << "query " << k;
          EXPECT_EQ(got->plan, want->plan) << "query " << k;
          const int repeats =
              repeated_failures(p, c, j, policy, duration_of);
          skippable[si][ri] += repeats;
          // Reserve it, as conservative backfilling does.
          p.add_hold(want->time, want->time + duration_of(want->plan),
                     want->plan);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(queries, 10000);
  // Every selection under every routing, shared-neighbors (which never
  // skips) included, met candidates that repeat a failing plan.
  for (const auto& per_routing : skippable) {
    for (const int n : per_routing) EXPECT_GT(n, 30);
  }
}

// --- Sweeps bounded by a latest start ----------------------------------------

/// Bounds to test a query against: before now, on a breakpoint, between two
/// breakpoints, none, and on the unbounded fit's start and the breakpoint
/// just before it.
std::vector<SimTime> bounds_for(const ProfileOracle& p, Rng& rng,
                                const std::optional<FreeProfile::Fit>& fit) {
  const std::vector<SimTime> points = p.breakpoints();
  const SimTime on_row = points[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(points.size()) - 1))];
  std::vector<SimTime> bounds = {p.now() - seconds(kStepSec), on_row,
                                 on_row + seconds(std::int64_t{1}), kTimeInfinity};
  if (fit) {
    bounds.push_back(fit->time);
    const auto at = std::lower_bound(points.begin(), points.end(), fit->time);
    if (at != points.begin()) bounds.push_back(*(at - 1));
  }
  return bounds;
}

TEST(ProfileBound, NotAfterMatchesUnboundedSweep) {
  Rng rng(20261019);
  int cut[4][4] = {};   // bounded sweeps that stopped before the fit
  int kept[4][4] = {};  // bounded sweeps that reached it
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const ClusterConfig c = random_machine(rng);
    const SimTime now = seconds(kStepSec * 4);
    const auto grid = [&](std::int64_t lo, std::int64_t hi) {
      return now + seconds(kStepSec * rng.uniform_int(lo, hi));
    };
    for (std::size_t si = 0; si < 4; ++si) {
      for (std::size_t ri = 0; ri < 4; ++ri) {
        const PlacementPolicy policy{kSelections[si], kRoutings[ri]};
        ResourceState busy = empty_state(c);
        std::vector<std::pair<SimTime, TakePlan>> running;
        for (int k = 0; k < 6; ++k) {
          const auto plan = compute_take(busy, c, random_job(rng, c), policy);
          if (!plan) continue;
          apply_take(busy, *plan);
          running.emplace_back(grid(-2, 12), *plan);
        }
        ProfileOracle p(busy, now, &c);
        for (const auto& [t, plan] : running) p.add_release(t, plan);

        const SimTime len = seconds(kStepSec * rng.uniform_int(1, 6));
        const auto duration_of = [&](const TakePlan& plan) {
          return plan.global_total() > Bytes{0} ? len + seconds(kStepSec / 2)
                                                : len;
        };
        for (int k = 0; k < 8; ++k) {
          const Job j = random_job(rng, c);
          const auto want = p.earliest_fit_window(j, policy, duration_of);
          for (const SimTime not_after : bounds_for(p, rng, want)) {
            const auto got = p.profile().earliest_fit_window(
                j, policy, duration_of, not_after);
            if (want && want->time <= not_after) {
              ASSERT_TRUE(got.has_value()) << "query " << k;
              EXPECT_EQ(got->time, want->time) << "query " << k;
              EXPECT_EQ(got->plan, want->plan) << "query " << k;
              ++kept[si][ri];
            } else {
              EXPECT_FALSE(got.has_value()) << "query " << k;
              if (want) ++cut[si][ri];
            }
          }
          // Reserve it or hold it and roll back, as the schedulers do, so
          // the next bounded sweep reads rows a shorter one left ungrown.
          if (!want) continue;
          const FreeProfile::Mark mark = p.mark();
          p.add_hold(want->time, want->time + duration_of(want->plan),
                     want->plan);
          if (rng.bernoulli(0.3)) p.rollback(mark);
        }
        if (HasFatalFailure()) return;
      }
    }
  }
  for (std::size_t si = 0; si < 4; ++si) {
    for (std::size_t ri = 0; ri < 4; ++ri) {
      EXPECT_GT(cut[si][ri], 20) << si << "/" << ri;
      EXPECT_GT(kept[si][ri], 20) << si << "/" << ri;
    }
  }
}

// --- Candidates rejected at a drained row ------------------------------------

/// A hold over [from, to) of every node that stays free throughout, so no
/// row inside it admits any job.
void drain_nodes(ProfileOracle& p, SimTime from, SimTime to) {
  ResourceState least = p.state_at(from);
  for (const SimTime u : p.breakpoints()) {
    if (u > from && u < to) {
      const ResourceState at = p.state_at(u);
      for (std::size_t r = 0; r < least.free_nodes.size(); ++r) {
        least.free_nodes[r] = std::min(least.free_nodes[r], at.free_nodes[r]);
      }
    }
  }
  TakePlan drain;
  for (std::size_t r = 0; r < least.free_nodes.size(); ++r) {
    if (least.free_nodes[r] > 0) {
      drain.takes.push_back({static_cast<RackId>(r), least.free_nodes[r]});
    }
  }
  if (!drain.takes.empty()) p.add_hold(from, to, drain);
}

/// Candidates of the oracle's plain sweep that the failing-row rule
/// rejects unplanned: a later row at which the last planned candidate
/// failed lies before this start plus the empty plan's duration, and its
/// totals do not admit the job.
template <class DurationFn>
int unplanned_rejects(const ProfileOracle& p, const ClusterConfig& c,
                      const Job& job, PlacementPolicy policy,
                      DurationFn&& duration_of) {
  const std::vector<SimTime> points = p.breakpoints();
  const SimTime shortest = duration_of(TakePlan{});
  int rejects = 0;
  std::optional<std::size_t> failed;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (failed && *failed > i && points[*failed] < points[i] + shortest &&
        !totals_admit(p.state_at(points[*failed]), c, job, policy)) {
      ++rejects;
      continue;
    }
    const auto plan = compute_take(p.state_at(points[i]), c, job, policy);
    if (!plan) continue;
    const SimTime end = points[i] + duration_of(*plan);
    std::size_t k = i + 1;
    while (k < points.size() && points[k] < end &&
           can_apply(p.state_at(points[k]), *plan)) {
      ++k;
    }
    if (k == points.size() || points[k] >= end) return rejects;
    failed = k;
  }
  return rejects;
}

TEST(ProfileDrained, DrainedRowsMatchBreakpointSweep) {
  Rng rng(20261020);
  int queries = 0;
  int unplanned[4][4] = {};  // per selection and routing
  for (int round = 0; round < 150; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const ClusterConfig c = random_machine(rng);
    const SimTime now = seconds(kStepSec * 4);
    const auto grid = [&](std::int64_t lo, std::int64_t hi) {
      return now + seconds(kStepSec * rng.uniform_int(lo, hi));
    };
    for (std::size_t si = 0; si < 4; ++si) {
      for (std::size_t ri = 0; ri < 4; ++ri) {
        const PlacementPolicy policy{kSelections[si], kRoutings[ri]};
        ResourceState busy = empty_state(c);
        std::vector<std::pair<SimTime, TakePlan>> running;
        for (int k = 0; k < 6; ++k) {
          const auto plan = compute_take(busy, c, random_job(rng, c), policy);
          if (!plan) continue;
          apply_take(busy, *plan);
          running.emplace_back(grid(-1, 10), *plan);
        }
        ProfileOracle p(busy, now, &c);
        for (const auto& [t, plan] : running) p.add_release(t, plan);
        // Whole-step windows, a step longer with global bytes: window ends
        // often land exactly on a drained row.
        const SimTime len = seconds(kStepSec * rng.uniform_int(1, 4));
        const auto duration_of = [&](const TakePlan& plan) {
          return plan.global_total() > Bytes{0} ? len + seconds(kStepSec)
                                                : len;
        };
        for (int k = 0; k < 6; ++k) {
          if (rng.bernoulli(0.7)) {
            const SimTime from = grid(0, 10);
            drain_nodes(p, from,
                        from + seconds(kStepSec * rng.uniform_int(1, 3)));
          }
          const Job j = random_job(rng, c);
          const auto got =
              p.profile().earliest_fit_window(j, policy, duration_of);
          const auto want = p.earliest_fit_window(j, policy, duration_of);
          ++queries;
          ASSERT_EQ(got.has_value(), want.has_value()) << "query " << k;
          if (!got) continue;
          EXPECT_EQ(got->time, want->time) << "query " << k;
          EXPECT_EQ(got->plan, want->plan) << "query " << k;
          unplanned[si][ri] += unplanned_rejects(p, c, j, policy, duration_of);
          if (rng.bernoulli(0.5)) {
            p.add_hold(want->time, want->time + duration_of(want->plan),
                       want->plan);
          }
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(queries, 5000);
  // Every selection under every routing met candidates the rule rejects.
  for (const auto& per_routing : unplanned) {
    for (const int n : per_routing) EXPECT_GT(n, 20);
  }
}

/// A window that ends exactly on a drained row fits, and a candidate past
/// the drained row is planned again: the two edges of the failing-row rule.
TEST(ProfileDrained, WindowsAtTheEdgesOfADrainedRow) {
  // Two racks of four nodes; both rack pools are drawn dry until `back`.
  const ClusterConfig c = testing::machine(8, 64.0, 32.0, 64.0);
  const SimTime now = seconds(kStepSec * 4);
  const auto at = [&](std::int64_t steps) {
    return now + seconds(kStepSec * steps);
  };
  TakePlan pools;
  pools.takes.push_back({0, 0, gib(32.0)});
  pools.takes.push_back({1, 0, gib(32.0)});
  TakePlan all_nodes;
  all_nodes.takes.push_back({0, 4});
  all_nodes.takes.push_back({1, 4});
  // 8 GiB far per node: rack pools once they are back, else the global tier.
  const Job j = testing::job(0).nodes(2).mem_gib(64.0 + 8.0);
  const PlacementPolicy policy{NodeSelection::kFirstFit,
                               PoolRouting::kRackThenGlobal};
  // Four steps, six with global bytes.
  const auto duration_of = [&](const TakePlan& plan) {
    return at(plan.global_total() > Bytes{0} ? 6 : 4) - now;
  };
  for (const bool pools_back : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "pools back " << pools_back);
    ResourceState base = empty_state(c);
    apply_take(base, pools);
    ProfileOracle p(base, now, &c);
    if (pools_back) p.add_release(at(1), pools);
    // The whole machine is held over [5, 7): now's global plan (window
    // [0, 6)) fails at 5.
    p.add_hold(at(5), at(7), all_nodes);
    const auto got = p.profile().earliest_fit_window(j, policy, duration_of);
    const auto want = p.earliest_fit_window(j, policy, duration_of);
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    // With the pools back at 1, a rack-pool plan's window [1, 5) ends on
    // the drained row and fits. Without them, the global plan fits at 7,
    // past the drained row.
    EXPECT_EQ(want->time, at(pools_back ? 1 : 7));
    EXPECT_EQ(got->time, want->time);
    EXPECT_EQ(got->plan, want->plan);
  }
}

// --- Profiles with no take after now ----------------------------------------

/// Window fits on a profile of releases (some overdue) and, when
/// `holds_at_now`, holds that start at now: each equals the oracle's window
/// fit and its instantaneous fit. Returns the queries that found a fit.
int expect_unwalked_fits(Rng& rng, bool holds_at_now) {
  const ClusterConfig c = random_machine(rng);
  const PlacementPolicy policy{
      kSelections[rng.uniform_int(0, 3)], kRoutings[rng.uniform_int(0, 3)]};
  const SimTime now = seconds(kStepSec * 4);
  ResourceState busy = empty_state(c);
  std::vector<std::pair<SimTime, TakePlan>> running;
  for (int k = 0; k < 8; ++k) {
    const auto plan = compute_take(busy, c, random_job(rng, c), policy);
    if (!plan) continue;
    apply_take(busy, *plan);
    running.emplace_back(now + seconds(kStepSec * rng.uniform_int(-2, 12)),
                         *plan);
  }
  ProfileOracle p(busy, now, &c);
  for (const auto& [t, plan] : running) p.add_release(t, plan);

  const SimTime len = seconds(kStepSec * rng.uniform_int(1, 8));
  const auto duration_of = [&](const TakePlan& plan) {
    return plan.global_total() > Bytes{0} ? len + seconds(kStepSec / 2) : len;
  };
  int fits = 0;
  for (int k = 0; k < 12; ++k) {
    const Job j = random_job(rng, c);
    const auto got = p.profile().earliest_fit_window(j, policy, duration_of);
    const auto want = p.earliest_fit_window(j, policy, duration_of);
    const auto instant = p.earliest_fit(j, policy);
    EXPECT_EQ(got.has_value(), want.has_value()) << "query " << k;
    EXPECT_EQ(got.has_value(), instant.has_value()) << "query " << k;
    if (!got || !want || !instant) continue;
    EXPECT_EQ(got->time, want->time) << "query " << k;
    EXPECT_EQ(got->plan, want->plan) << "query " << k;
    EXPECT_EQ(got->time, instant->time) << "query " << k;
    ++fits;
    // Start it now if it fits now, as a backfill would.
    if (holds_at_now && got->time == now) {
      p.add_hold(now, now + duration_of(got->plan), got->plan);
    }
  }
  return fits;
}

TEST(ProfileNoFutureTake, ReleaseOnlyFitsMatchBreakpointSweep) {
  Rng rng(20261020);
  int fits = 0;
  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    fits += expect_unwalked_fits(rng, /*holds_at_now=*/false);
  }
  EXPECT_GT(fits, 500);
}

TEST(ProfileNoFutureTake, HoldsAtNowMatchBreakpointSweep) {
  Rng rng(20261021);
  int fits = 0;
  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    fits += expect_unwalked_fits(rng, /*holds_at_now=*/true);
  }
  EXPECT_GT(fits, 500);
}

TEST(ProfileNoFutureTake, ALaterHoldBreaksTheWindowUntilRolledBack) {
  // Two racks of four nodes, all free, and a job of four nodes for three
  // steps. A hold starting at now takes one node; it never falls later.
  const ClusterConfig c = testing::machine(8, 64.0);
  const SimTime now = seconds(kStepSec * 4);
  const auto at = [&](std::int64_t steps) {
    return now + seconds(kStepSec * steps);
  };
  const Job j = testing::job(0).nodes(4).mem_gib(32.0);
  const PlacementPolicy policy{NodeSelection::kFirstFit,
                               PoolRouting::kRackThenGlobal};
  const auto three_steps = [&](const TakePlan&) { return at(3) - now; };
  TakePlan one;
  one.takes.push_back({0, 1});
  TakePlan six;
  six.takes.push_back({0, 3});
  six.takes.push_back({1, 3});
  ProfileOracle p(empty_state(c), now, &c);
  p.add_hold(now, at(1), one);
  const FreeProfile::Mark before = p.mark();
  // Six nodes held over [2, 5): the fit at now (window [0, 3)) breaks at 2,
  // and only 2 nodes are free until 5.
  p.add_hold(at(2), at(5), six);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const auto got = p.profile().earliest_fit_window(j, policy, three_steps);
    const auto want = p.earliest_fit_window(j, policy, three_steps);
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(want->time, round == 0 ? at(5) : now);
    EXPECT_EQ(got->time, want->time);
    EXPECT_EQ(got->plan, want->plan);
    p.rollback(before);
  }
}

TEST(ProfileMarksDeathTest, RollbackRefusesAMarkThatSplitsAHold) {
  const ClusterConfig c = testing::machine(8, 64.0);
  FreeProfile profile(empty_state(c), SimTime{}, &c);
  TakePlan two;
  two.takes.push_back({0, 2});
  const FreeProfile::Mark m = profile.mark();
  profile.add_hold(hours(1), hours(2), two);
  EXPECT_DEATH(profile.rollback(m + 1), "mark splits a hold");
  profile.rollback(m);
  EXPECT_EQ(profile.mark(), m);
  EXPECT_EQ(profile.state_at(hours(1)).free_nodes_total, 8);
}

// --- One profile re-synced across machine shapes -----------------------------

/// A machine the shared profile syncs against: a context with the engine's
/// availability timeline, and a pool of jobs to start and finish on it.
struct Site {
  Site(ClusterConfig config, Rng& rng)
      : ctx(config, random_jobs(config, rng)) {}

  static std::vector<Job> random_jobs(const ClusterConfig& c, Rng& rng) {
    std::vector<Job> jobs;
    for (JobId id = 0; id < 200; ++id) {
      Job j = testing::job(id)
                  .nodes(static_cast<std::int32_t>(
                      rng.uniform_int(1, c.total_nodes / 3)))
                  .mem_gib(static_cast<double>(rng.uniform_int(16, 160)))
                  .walltime_h(static_cast<double>(rng.uniform_int(1, 8)));
      if (c.has_gpus() && rng.bernoulli(0.6)) {
        j.gpus_per_node = static_cast<std::int32_t>(rng.uniform_int(1, 4));
      }
      if (c.has_burst_buffer() && rng.bernoulli(0.5)) {
        j.bb_bytes = gib(rng.uniform_int(8, 96));
      }
      jobs.push_back(j);
    }
    return jobs;
  }

  /// Start the next pool job if it fits now, else finish a running one.
  /// False when neither was possible (the timeline did not move).
  bool move(Rng& rng) {
    const JobId id = next_job++ % 200;
    if (ctx.running_record(id) == nullptr &&
        plan_start(ctx.cluster(), ctx.job(id), ctx.placement())) {
      ctx.force_run(id);
      return true;
    }
    const auto& running = ctx.timeline()->entries();
    if (running.empty()) return false;
    ctx.finish(running[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(running.size()) - 1))]
                   .id);
    return true;
  }

  testing::FakeContext ctx;
  JobId next_job = 0;
};

ClusterConfig three_racks_without_gpus() {
  return testing::machine(12, 64, /*rack_pool_gib=*/128,
                          /*global_pool_gib=*/256);
}

ClusterConfig sixteen_racks_with_gpus() {
  ClusterConfig c = testing::machine(64, 64, /*rack_pool_gib=*/128,
                                     /*global_pool_gib=*/512);
  c.gpus_per_node = 4;
  c.bb_capacity = gib(std::int64_t{256});
  return c;
}

struct RowCounts {
  int rebuilds[2] = {};
  int clean_syncs = 0;
  int holds = 0;
  int rollbacks = 0;
  int drops = 0;
  int fits = 0;
  int states = 0;
};

/// Every breakpoint's state, and window fits for a few jobs, equal the
/// oracle's from-scratch answers.
void expect_matches_oracle(const ProfileOracle& oracle, Site& site, Rng& rng,
                           PlacementPolicy policy, RowCounts& counts) {
  for (const SimTime t : oracle.breakpoints()) {
    const ResourceState& got = oracle.profile().state_at(t);
    const ResourceState want = oracle.state_at(t);
    EXPECT_EQ(got.free_nodes, want.free_nodes) << "at " << t.seconds();
    EXPECT_EQ(got.pool_free, want.pool_free) << "at " << t.seconds();
    EXPECT_EQ(got.free_gpus, want.free_gpus) << "at " << t.seconds();
    EXPECT_EQ(got.global_free, want.global_free) << "at " << t.seconds();
    EXPECT_EQ(got.bb_free, want.bb_free) << "at " << t.seconds();
    EXPECT_TRUE(oracle.keeps_totals_at(t)) << "at " << t.seconds();
    ++counts.states;
  }
  const auto duration_of = [](const TakePlan& plan) {
    return plan.global_total() > Bytes{0} ? hours(3) : hours(2);
  };
  for (int k = 0; k < 3; ++k) {
    const Job& j = site.ctx.job(static_cast<JobId>(rng.uniform_int(0, 199)));
    const auto got =
        oracle.profile().earliest_fit_window(j, policy, duration_of);
    const auto want = oracle.earliest_fit_window(j, policy, duration_of);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) continue;
    EXPECT_EQ(got->time, want->time);
    EXPECT_EQ(got->plan, want->plan);
    ++counts.fits;
  }
}

TEST(ProfileRows, ReusedAcrossMachineShapesMatchesOracle) {
  Rng rng(20261017);
  Site sites[2] = {Site(three_racks_without_gpus(), rng),
                   Site(sixteen_racks_with_gpus(), rng)};
  FreeProfile profile;  // the one profile under test, never rebuilt from new
  std::optional<ProfileOracle> oracle;
  int last = -1;
  RowCounts counts;
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    // Stay on the last site, or switch to the other one (always at first).
    const int at =
        last >= 0 && !rng.bernoulli(0.3) ? last : (last == 1 ? 0 : 1);
    Site& site = sites[at];
    const PlacementPolicy policy{
        kSelections[rng.uniform_int(0, 3)], kRoutings[rng.uniform_int(0, 3)]};

    // Maybe move the timeline (a start or a finish: the sync must rebuild),
    // then advance the clock, often to just before the next breakpoint (the
    // sync stays clean unless something else forces a rebuild).
    bool expect_clean = at == last;
    if (rng.bernoulli(0.3) && site.move(rng)) expect_clean = false;
    const SimTime now = site.ctx.now();
    std::optional<SimTime> next;
    if (expect_clean) {
      for (const SimTime t : oracle->breakpoints()) {
        if (t > now) {
          next = t;
          break;
        }
      }
    }
    const SimTime step_to = next.value_or(now + hours(4));
    if (rng.bernoulli(0.6)) {
      site.ctx.set_now(now + usec((step_to - now).usec() / 2));
    } else if (rng.bernoulli(0.5)) {
      site.ctx.set_now(step_to);
      if (next) expect_clean = false;  // landed on a breakpoint: crossed it
    }

    const bool clean = profile.sync(site.ctx);
    EXPECT_EQ(clean, expect_clean);
    if (clean) {
      oracle->advance(site.ctx.now());
      ++counts.clean_syncs;
    } else {
      oracle.emplace(profile, *site.ctx.timeline(), site.ctx.now());
      ++counts.rebuilds[at];
    }
    last = at;

    // Holds, rollbacks and dropped holds between syncs, checked as they go.
    const FreeProfile::Mark start = oracle->mark();
    for (int op = 0; op < 4; ++op) {
      const double r = rng.uniform();
      if (r < 0.6) {
        const Job& j =
            site.ctx.job(static_cast<JobId>(rng.uniform_int(0, 199)));
        const SimTime len = hours(rng.uniform_int(1, 6));
        const auto fit = oracle->earliest_fit_window(
            j, policy, [&](const TakePlan&) { return len; });
        if (!fit) continue;
        oracle->add_hold(fit->time, fit->time + len, fit->plan);
        ++counts.holds;
      } else if (r < 0.8) {
        // Back to a mark taken since the sync (a drop may have gone below).
        // Every hold adds two deltas, so marks lie an even count apart: an
        // odd count would keep a hold's start and drop its end.
        const auto lo =
            static_cast<std::int64_t>(std::min(start, oracle->mark()));
        const auto holds =
            (static_cast<std::int64_t>(oracle->mark()) - lo) / 2;
        oracle->rollback(static_cast<FreeProfile::Mark>(
            lo + 2 * rng.uniform_int(0, holds)));
        ++counts.rollbacks;
      } else {
        oracle->drop_holds();
        ++counts.drops;
      }
      expect_matches_oracle(*oracle, site, rng, policy, counts);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(counts.rebuilds[0], 30);
  EXPECT_GT(counts.rebuilds[1], 30);
  EXPECT_GT(counts.clean_syncs, 30);
  EXPECT_GT(counts.holds, 300);
  EXPECT_GT(counts.rollbacks, 100);
  EXPECT_GT(counts.drops, 100);
  EXPECT_GT(counts.fits, 1000);
  EXPECT_GT(counts.states, 3000);
}

// --- Holds folded into grown rows -------------------------------------------

/// The profile's state at `t` equals the oracle's from-scratch fold.
void expect_state(const ProfileOracle& p, SimTime t) {
  const ResourceState got = p.profile().state_at(t);
  const ResourceState want = p.state_at(t);
  EXPECT_EQ(got.free_nodes, want.free_nodes) << "at " << t.seconds();
  EXPECT_EQ(got.pool_free, want.pool_free) << "at " << t.seconds();
  EXPECT_EQ(got.global_free, want.global_free) << "at " << t.seconds();
  EXPECT_TRUE(p.keeps_totals_at(t)) << "at " << t.seconds();
}

/// Every breakpoint's state, in time order (which grows every row).
void expect_all_states(const ProfileOracle& p) {
  for (const SimTime t : p.breakpoints()) expect_state(p, t);
}

/// Whether `plan` stays subtractable at every breakpoint in (start, end).
bool continuous(const ProfileOracle& p, const TakePlan& plan, SimTime start,
                SimTime end) {
  for (const SimTime u : p.breakpoints()) {
    if (u > start && u < end && !can_apply(p.state_at(u), plan)) return false;
  }
  return true;
}

struct FoldCounts {
  int holds_at_now = 0;
  int starts_on_breakpoint = 0;
  int starts_between = 0;
  int ends_on_breakpoint = 0;
  int ends_past_frontier = 0;  // past every breakpoint, so past every row
  int rollbacks = 0;
  int drops = 0;
  int probes = 0;
  int fits = 0;
};

void run_walk(Rng& rng, FoldCounts& counts) {
  const ClusterConfig c = random_machine(rng);
  PlacementPolicy policy{kSelections[rng.uniform_int(0, 3)],
                         kRoutings[rng.uniform_int(0, 3)]};
  std::vector<Job> jobs;
  for (JobId id = 0; id < 40; ++id) {
    Job j = random_job(rng, c);
    j.id = id;
    j.walltime = seconds(kStepSec * rng.uniform_int(1, 16));
    jobs.push_back(j);
  }
  testing::FakeContext ctx(c, jobs);
  ctx.set_placement(policy);
  // A partly busy machine: jobs started at 0, some overdue by now.
  for (JobId id = 0; id < 8; ++id) {
    if (plan_start(ctx.cluster(), ctx.job(id), policy)) ctx.force_run(id);
  }
  const SimTime now = seconds(kStepSec * rng.uniform_int(0, 3));
  ctx.set_now(now);
  FreeProfile profile;
  ASSERT_FALSE(profile.sync(ctx));
  ProfileOracle p(profile, *ctx.timeline(), now);

  const auto grid = [&](std::int64_t lo, std::int64_t hi) {
    return now + seconds(kStepSec * rng.uniform_int(lo, hi));
  };
  const auto duration_of = [](const TakePlan& plan) {
    return plan.global_total() > Bytes{0} ? seconds(3 * kStepSec)
                                          : seconds(2 * kStepSec);
  };
  std::vector<FreeProfile::Mark> marks;
  for (int step = 0; step < 80; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const double r = rng.uniform();
    if (r < 0.35) {
      const Job j = random_job(rng, c);
      const std::vector<SimTime> points = p.breakpoints();
      const SimTime last = points.back();
      const auto pick = [&] {
        return points[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(points.size()) - 1))];
      };
      // The start: now, a breakpoint, or halfway between grid points.
      SimTime start = now;
      const double s = rng.uniform();
      if (s >= 0.25 && s < 0.65) {
        start = pick();
      } else if (s >= 0.65) {
        start = grid(0, 16) + seconds(kStepSec / 2);
      }
      // The end: a later breakpoint, past every breakpoint, or a length.
      SimTime end = start + seconds(kStepSec * rng.uniform_int(1, 8));
      const double e = rng.uniform();
      if (e < 0.35) {
        const SimTime at = pick();
        if (at > start) end = at;
      } else if (e < 0.55) {
        end = std::max(start, last) + seconds(kStepSec * rng.uniform_int(1, 4));
      }
      const auto plan = compute_take(p.state_at(start), c, j, policy);
      if (!plan || !continuous(p, *plan, start, end)) continue;
      const bool on_point =
          std::find(points.begin(), points.end(), start) != points.end();
      const bool end_on_point =
          std::find(points.begin(), points.end(), end) != points.end();
      p.add_hold(start, end, *plan);
      if (start == now) {
        ++counts.holds_at_now;
      } else {
        ++(on_point ? counts.starts_on_breakpoint : counts.starts_between);
        if (end_on_point) ++counts.ends_on_breakpoint;
        if (end > last) ++counts.ends_past_frontier;
      }
    } else if (r < 0.50) {
      // A probe at a random instant: it also grows the rows through it.
      expect_state(p, grid(0, 24) + seconds(rng.uniform_int(0, 1)));
      ++counts.probes;
    } else if (r < 0.65) {
      const Job j = random_job(rng, c);
      const auto got = p.profile().earliest_fit_window(j, policy, duration_of);
      const auto want = p.earliest_fit_window(j, policy, duration_of);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (got) {
        EXPECT_EQ(got->time, want->time);
        EXPECT_EQ(got->plan, want->plan);
      }
      ++counts.fits;
    } else if (r < 0.75) {
      marks.push_back(p.mark());
    } else if (r < 0.85) {
      if (marks.empty()) continue;
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(marks.size()) - 1));
      p.rollback(marks[at]);
      marks.resize(at);
      ++counts.rollbacks;
    } else if (r < 0.90) {
      p.drop_holds();
      std::erase_if(marks, [&](FreeProfile::Mark m) { return m > p.mark(); });
      ++counts.drops;
    } else {
      expect_all_states(p);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_all_states(p);
}

TEST(ProfileFold, RandomWalkMatchesOracle) {
  Rng rng(20261020);
  FoldCounts counts;
  for (int round = 0; round < 150; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    run_walk(rng, counts);
    if (HasFatalFailure()) return;
  }
  // Every kind of hold and truncation was exercised.
  EXPECT_GT(counts.holds_at_now, 80);
  EXPECT_GT(counts.starts_on_breakpoint, 400);
  EXPECT_GT(counts.starts_between, 300);
  EXPECT_GT(counts.ends_on_breakpoint, 100);
  EXPECT_GT(counts.ends_past_frontier, 400);
  EXPECT_GT(counts.rollbacks, 250);
  EXPECT_GT(counts.drops, 250);
  EXPECT_GT(counts.probes, 900);
  EXPECT_GT(counts.fits, 900);
}

// --- Named edges -------------------------------------------------------------

/// 8 nodes in two racks of 4, `running` of them busy with 2-node jobs:
/// `state` is what is free now, `plans` the jobs' takes.
struct Busy {
  ClusterConfig config = testing::machine(8, 64.0, 64.0);
  ResourceState state = empty_state(config);
  std::vector<TakePlan> plans;

  explicit Busy(int running) {
    for (int k = 0; k < running; ++k) {
      const auto plan = compute_take(state, config, testing::job(0).nodes(2),
                                     PlacementPolicy{});
      EXPECT_TRUE(plan.has_value());
      apply_take(state, *plan);
      plans.push_back(*plan);
    }
  }
};

TEST(ProfileFold, HoldEndingOnAGrownRow) {
  Busy busy(4);  // nothing free now; 2 nodes at 1h, 4 at 2h, 6 at 3h
  ProfileOracle p(busy.state, SimTime{}, &busy.config);
  for (int k = 0; k < 3; ++k) p.add_release(hours(k + 1), busy.plans[k]);
  // Grow the rows at 1h, 2h and 3h, then hold 2 nodes over [1h, 3h): the
  // hold starts and ends on grown rows, and the row at 3h must keep its
  // state (the take and the release cancel there).
  EXPECT_EQ(p.profile().state_at(hours(3)).free_nodes_total, 6);
  const auto plan = compute_take(p.state_at(hours(1)), busy.config,
                                 testing::job(0).nodes(2), PlacementPolicy{});
  ASSERT_TRUE(plan.has_value());
  p.add_hold(hours(1), hours(3), *plan);
  EXPECT_EQ(p.profile().state_at(hours(1)).free_nodes_total, 0);
  EXPECT_EQ(p.profile().state_at(hours(2)).free_nodes_total, 2);
  EXPECT_EQ(p.profile().state_at(hours(3)).free_nodes_total, 6);
  expect_all_states(p);
  // A later release truncates only past the 3h row: the next row grows
  // from that row's consumed count, which must count the hold's deltas.
  p.add_release(hours(4), busy.plans[3]);
  expect_all_states(p);
  const auto fit = p.profile().earliest_fit_window(
      testing::job(0).nodes(6), PlacementPolicy{},
      [](const TakePlan&) { return hours(1); });
  ASSERT_TRUE(fit.has_value());
  EXPECT_EQ(fit->time, hours(3));
}

TEST(ProfileFold, HoldStartingBeforeTheFirstGrownRow) {
  Busy busy(3);  // 2 nodes free now; 4 at 2h, 6 at 3h
  ProfileOracle p(busy.state, SimTime{}, &busy.config);
  p.add_release(hours(2), busy.plans[0]);
  p.add_release(hours(3), busy.plans[1]);
  EXPECT_EQ(p.profile().state_at(hours(3)).free_nodes_total, 6);
  // Hold 2 nodes over [1h, 2.5h): a row is inserted before the first grown
  // row (at 1h, from the base state) and one between 2h and 3h.
  const auto plan = compute_take(p.state_at(hours(1)), busy.config,
                                 testing::job(0).nodes(2), PlacementPolicy{});
  ASSERT_TRUE(plan.has_value());
  const SimTime end = hours(2) + seconds(kStepSec);
  p.add_hold(hours(1), end, *plan);
  EXPECT_EQ(p.profile().state_at(hours(1)).free_nodes_total, 0);
  EXPECT_EQ(p.profile().state_at(hours(2)).free_nodes_total, 2);
  EXPECT_EQ(p.profile().state_at(end).free_nodes_total, 4);
  EXPECT_EQ(p.profile().state_at(hours(3)).free_nodes_total, 6);
  expect_all_states(p);
  p.add_release(hours(4), busy.plans[2]);
  expect_all_states(p);
  // 4 nodes for 2h: from 2.5h on, every row has them.
  const auto duration_of = [](const TakePlan&) { return hours(2); };
  const auto fit = p.profile().earliest_fit_window(
      testing::job(0).nodes(4), PlacementPolicy{}, duration_of);
  const auto want = p.earliest_fit_window(testing::job(0).nodes(4),
                                          PlacementPolicy{}, duration_of);
  ASSERT_TRUE(fit.has_value() && want.has_value());
  EXPECT_EQ(fit->time, end);
  EXPECT_EQ(fit->time, want->time);
  EXPECT_EQ(fit->plan, want->plan);
}

}  // namespace
}  // namespace dmsched
