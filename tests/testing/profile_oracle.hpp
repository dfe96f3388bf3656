// Brute-force reference for FreeProfile queries.
//
// A ProfileOracle drives a real FreeProfile and keeps its own log of every
// delta it was given. From that log it enumerates the breakpoints (which
// FreeProfile does not expose), folds the state at any instant from scratch
// (without touching the profile's prefix-state cache), and answers fit
// queries with the plain step-by-breakpoint sweep: test every breakpoint,
// and for a candidate start re-check the plan at every later breakpoint
// inside its window. The profile's row cursor must agree with it exactly,
// down to the totals each row keeps (`keeps_totals_at`).
//
// An oracle either owns a fresh profile or mirrors one the test keeps
// re-syncing: constructed right after a rebuilding sync(), it logs the
// timeline's releases as the profile did, so a profile reused across
// rebuilds is checked against the same from-scratch fold.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "memory/placement.hpp"
#include "sched/profile.hpp"

namespace dmsched::testing {

/// One logged change to projected availability: `take` becomes free
/// (`adds`: a release or a hold's end) or is taken (a hold's start).
struct ProfileDelta {
  SimTime time;
  TakePlan take;
  bool adds = true;
};

class ProfileOracle {
 public:
  using Fit = FreeProfile::Fit;

  /// Owns a fresh profile over `base`.
  ProfileOracle(ResourceState base, SimTime now, const ClusterConfig* config)
      : owned_(base, now, config),
        base_(std::move(base)),
        now_(now),
        config_(config) {}

  /// Mirrors `profile` right after it rebuilt from `timeline` at `now`
  /// (a sync() that returned false).
  ProfileOracle(FreeProfile& profile, const AvailabilityTimeline& timeline,
                SimTime now)
      : profile_(&profile),
        base_(timeline.free_now()),
        now_(now),
        config_(&timeline.config()) {
    for (const auto& e : timeline.entries()) {
      log_.push_back({e.expected_end, e.take, /*adds=*/true});
    }
    releases_ = log_.size();
    DMSCHED_ASSERT(profile.mark() == releases_, "profile did not rebuild");
  }

  ProfileOracle(const ProfileOracle&) = delete;
  ProfileOracle& operator=(const ProfileOracle&) = delete;

  // Mutators: applied to the profile and to the log alike.
  void add_release(SimTime time, const TakePlan& take) {
    profile_->add_release(time, take);
    log_.push_back({time, take, /*adds=*/true});
  }
  void add_hold(SimTime start, SimTime end, const TakePlan& take) {
    profile_->add_hold(start, end, take);
    log_.push_back({start, take, /*adds=*/false});
    log_.push_back({end, take, /*adds=*/true});
  }
  [[nodiscard]] FreeProfile::Mark mark() const {
    DMSCHED_ASSERT(profile_->mark() == log_.size(), "oracle log out of step");
    return profile_->mark();
  }
  void rollback(FreeProfile::Mark m) {
    profile_->rollback(m);
    log_.resize(m);
  }
  /// Drops every hold, keeping the releases the profile was built from.
  void drop_holds() {
    profile_->drop_holds();
    log_.resize(releases_);
  }
  /// The profile's clock moved to `now` by a clean sync().
  void advance(SimTime now) {
    DMSCHED_ASSERT(profile_->now() == now, "profile did not advance");
    now_ = now;
  }

  /// The profile under test. Query it directly; mutate through the oracle.
  [[nodiscard]] const FreeProfile& profile() const { return *profile_; }
  [[nodiscard]] SimTime now() const { return now_; }

  /// now() plus every delta time at or after it, sorted and deduplicated.
  [[nodiscard]] std::vector<SimTime> breakpoints() const {
    std::vector<SimTime> times{now_};
    for (const ProfileDelta& d : log_) {
      if (d.time >= now_) times.push_back(d.time);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    return times;
  }

  /// The base state plus every logged delta with time <= `t`. Additions
  /// fold first, so no intermediate state goes below the final one.
  [[nodiscard]] ResourceState state_at(SimTime t) const {
    ResourceState s = base_;
    for (const ProfileDelta& d : log_) {
      if (d.adds && d.time <= t) release_take(s, d.take);
    }
    for (const ProfileDelta& d : log_) {
      if (!d.adds && d.time <= t) apply_take(s, d.take);
    }
    return s;
  }

  /// Whether the profile's state at `t` keeps the totals of the
  /// from-scratch fold: Σ free nodes and Σ pool bytes recounted from the
  /// fold's per-rack vectors.
  [[nodiscard]] bool keeps_totals_at(SimTime t) const {
    ResourceState want = state_at(t);
    want.recount();
    const ResourceState& got = profile_->state_at(t);
    return got.free_nodes_total == want.free_nodes_total &&
           got.pool_free_total == want.pool_free_total;
  }

  /// Earliest breakpoint at which `job` fits instantaneously.
  [[nodiscard]] std::optional<Fit> earliest_fit(const Job& job,
                                                PlacementPolicy policy) const {
    return earliest_fit_window(job, policy,
                               [](const TakePlan&) { return SimTime{}; });
  }

  /// Earliest breakpoint t at which `job` fits and its plan stays
  /// subtractable at every breakpoint in (t, t + duration_of(plan)).
  template <class DurationFn>
  [[nodiscard]] std::optional<Fit> earliest_fit_window(
      const Job& job, PlacementPolicy policy, DurationFn&& duration_of) const {
    const std::vector<SimTime> points = breakpoints();
    for (std::size_t i = 0; i < points.size(); ++i) {
      auto plan = compute_take(state_at(points[i]), *config_, job, policy);
      if (!plan) continue;
      const SimTime end = points[i] + duration_of(*plan);
      bool continuous = true;
      for (std::size_t j = i + 1; j < points.size() && points[j] < end; ++j) {
        continuous = continuous && can_apply(state_at(points[j]), *plan);
      }
      if (continuous) return Fit{points[i], std::move(*plan)};
    }
    return std::nullopt;
  }

 private:
  FreeProfile owned_;
  FreeProfile* profile_ = &owned_;
  ResourceState base_;
  SimTime now_;
  const ClusterConfig* config_;
  /// Every delta in insertion order: the mark()/rollback() domain.
  std::vector<ProfileDelta> log_;
  /// Leading log entries that are releases (the drop_holds() floor).
  std::size_t releases_ = 0;
};

}  // namespace dmsched::testing
