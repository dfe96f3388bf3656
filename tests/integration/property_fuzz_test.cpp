// Randomized property tests with independent oracles:
//  - the placement kernel against a closed-form max-startable-nodes formula
//    and apply/release round-trip identities;
//  - profile fitting against brute-force probing of state_at().
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sched/profile.hpp"
#include "testing/builders.hpp"
#include "testing/profile_oracle.hpp"

namespace dmsched {
namespace {

using testing::job;
using testing::ProfileOracle;

constexpr int kRounds = 300;

ClusterConfig fuzz_config(Rng& rng) {
  ClusterConfig c;
  c.name = "fuzz";
  c.nodes_per_rack = static_cast<std::int32_t>(rng.uniform_int(2, 8));
  c.total_nodes =
      c.nodes_per_rack * static_cast<std::int32_t>(rng.uniform_int(1, 6));
  c.local_mem_per_node = gib(rng.uniform_int(16, 128));
  c.pool_per_rack = rng.bernoulli(0.7) ? gib(rng.uniform_int(0, 256))
                                       : Bytes{0};
  c.global_pool = rng.bernoulli(0.4) ? gib(rng.uniform_int(0, 512))
                                     : Bytes{0};
  return c;
}

ResourceState fuzz_state(Rng& rng, const ClusterConfig& c) {
  ResourceState s = empty_state(c);
  for (std::size_t r = 0; r < s.free_nodes.size(); ++r) {
    s.free_nodes[r] =
        static_cast<std::int32_t>(rng.uniform_int(0, s.free_nodes[r]));
    if (!s.pool_free[r].is_zero()) {
      s.pool_free[r] = gib(rng.uniform_int(
          0, s.pool_free[r].count() / kGiB.count()));
    }
  }
  if (!s.global_free.is_zero()) {
    s.global_free =
        gib(rng.uniform_int(0, s.global_free.count() / kGiB.count()));
  }
  s.recount();
  return s;
}

Job fuzz_job(Rng& rng, const ClusterConfig& c) {
  Job j = job(0)
              .nodes(static_cast<std::int32_t>(
                  rng.uniform_int(1, c.total_nodes + 2)))
              .mem_gib(static_cast<double>(rng.uniform_int(
                  1, 2 * c.local_mem_per_node.count() / kGiB.count())))
              .runtime_h(rng.uniform(0.1, 5.0));
  return j;
}

/// Independent oracle: the maximum startable nodes for a deficit-d job
/// under rack-then-global routing.
std::int64_t max_startable(const ResourceState& s, Bytes d) {
  if (d.is_zero()) {
    std::int64_t total = 0;
    for (const auto f : s.free_nodes) total += f;
    return total;
  }
  std::int64_t via_rack = 0;
  std::int64_t spare = 0;
  for (std::size_t r = 0; r < s.free_nodes.size(); ++r) {
    const std::int64_t funded =
        std::min<std::int64_t>(s.free_nodes[r], s.pool_free[r].count() / d.count());
    via_rack += funded;
    spare += s.free_nodes[r] - funded;
  }
  const std::int64_t via_global =
      std::min(spare, s.global_free.count() / d.count());
  return via_rack + via_global;
}

TEST(PlacementFuzz, ComputeTakeMatchesClosedFormFeasibility) {
  Rng rng(2024);
  const PlacementPolicy policy{NodeSelection::kFirstFit,
                               PoolRouting::kRackThenGlobal};
  for (int round = 0; round < kRounds; ++round) {
    const ClusterConfig c = fuzz_config(rng);
    const ResourceState s = fuzz_state(rng, c);
    const Job j = fuzz_job(rng, c);
    const Bytes d =
        j.mem_per_node - min(j.mem_per_node, c.local_mem_per_node);
    const bool expect_fit = max_startable(s, d) >= j.nodes;
    const auto plan = compute_take(s, c, j, policy);
    EXPECT_EQ(plan.has_value(), expect_fit)
        << "round " << round << ": nodes=" << j.nodes
        << " deficit=" << d.count();
  }
}

TEST(PlacementFuzz, PlansAreInternallyConsistent) {
  Rng rng(77);
  for (int round = 0; round < kRounds; ++round) {
    const ClusterConfig c = fuzz_config(rng);
    const ResourceState s = fuzz_state(rng, c);
    const Job j = fuzz_job(rng, c);
    for (const NodeSelection sel :
         {NodeSelection::kFirstFit, NodeSelection::kPackRacks,
          NodeSelection::kSpreadRacks, NodeSelection::kPoolAware}) {
      for (const PoolRouting route :
           {PoolRouting::kRackOnly, PoolRouting::kRackThenGlobal,
            PoolRouting::kGlobalOnly}) {
        const auto plan = compute_take(s, c, j, {sel, route});
        if (!plan) continue;
        EXPECT_EQ(plan->node_total(), j.nodes);
        EXPECT_EQ(plan->local_per_node + plan->far_per_node, j.mem_per_node);
        EXPECT_LE(plan->local_per_node, c.local_mem_per_node);
        const Bytes far_needed =
            plan->far_per_node * static_cast<std::int64_t>(j.nodes);
        EXPECT_EQ(plan->rack_pool_total() + plan->global_total(), far_needed);
        if (route == PoolRouting::kRackOnly) {
          EXPECT_TRUE(plan->global_total().is_zero());
        }
        if (route == PoolRouting::kGlobalOnly) {
          EXPECT_TRUE(plan->rack_pool_total().is_zero());
        }
        EXPECT_TRUE(can_apply(s, *plan));
        // apply/release round trip restores the state exactly
        ResourceState mutated = s;
        apply_take(mutated, *plan);
        release_take(mutated, *plan);
        EXPECT_EQ(mutated.free_nodes, s.free_nodes);
        EXPECT_EQ(mutated.pool_free, s.pool_free);
        EXPECT_EQ(mutated.global_free, s.global_free);
      }
    }
  }
}

TEST(PlacementFuzz, MoreResourcesNeverBreakFeasibility) {
  Rng rng(13);
  const PlacementPolicy policy{NodeSelection::kPoolAware,
                               PoolRouting::kRackThenGlobal};
  for (int round = 0; round < kRounds; ++round) {
    const ClusterConfig c = fuzz_config(rng);
    const ResourceState s = fuzz_state(rng, c);
    const Job j = fuzz_job(rng, c);
    if (!compute_take(s, c, j, policy)) continue;
    // grow every resource: the job must still fit
    ClusterConfig bigger = c;
    bigger.pool_per_rack += gib(std::int64_t{64});
    bigger.global_pool += gib(std::int64_t{64});
    ResourceState grown = s;
    for (std::size_t r = 0; r < grown.free_nodes.size(); ++r) {
      grown.pool_free[r] += gib(std::int64_t{64});
    }
    grown.global_free += gib(std::int64_t{64});
    grown.recount();
    EXPECT_TRUE(compute_take(grown, bigger, j, policy).has_value());
  }
}

TEST(ProfileFuzz, EarliestFitAgreesWithStateProbing) {
  Rng rng(555);
  const PlacementPolicy policy{NodeSelection::kFirstFit,
                               PoolRouting::kRackThenGlobal};
  for (int round = 0; round < 120; ++round) {
    const ClusterConfig c = fuzz_config(rng);

    // Fill with a random running set (consistent: takes applied to state).
    ResourceState live = empty_state(c);
    for (int k = 0; k < 6; ++k) {
      const Job r = fuzz_job(rng, c);
      const auto take = compute_take(live, c, r, policy);
      if (!take) continue;
      apply_take(live, *take);
    }
    // Profile over the final live state; the diff between empty and live is
    // what is held, released in one go at a random time.
    ProfileOracle profile(live, SimTime{}, &c);
    TakePlan held;
    const ResourceState empty = empty_state(c);
    for (std::size_t r = 0; r < live.free_nodes.size(); ++r) {
      RackTake t;
      t.rack = static_cast<RackId>(r);
      t.nodes = empty.free_nodes[r] - live.free_nodes[r];
      t.rack_pool_bytes = empty.pool_free[r] - live.pool_free[r];
      if (t.nodes > 0 || t.rack_pool_bytes > Bytes{0}) held.takes.push_back(t);
    }
    if (empty.global_free > live.global_free) {
      if (held.takes.empty()) held.takes.push_back({0, 0, Bytes{0}, Bytes{0}});
      held.takes.front().global_pool_bytes =
          empty.global_free - live.global_free;
    }
    const SimTime release_at = hours(rng.uniform_int(1, 10));
    if (!held.takes.empty()) profile.add_release(release_at, held);

    const Job q = fuzz_job(rng, c);
    // An instantaneous fit is a zero-length window.
    const auto fit = profile.profile().earliest_fit_window(
        q, policy, [](const TakePlan&) { return SimTime{}; });
    // Oracle: probe state_at at every breakpoint.
    std::optional<SimTime> expected;
    for (const SimTime t : profile.breakpoints()) {
      if (compute_take(profile.profile().state_at(t), c, q, policy)) {
        expected = t;
        break;
      }
    }
    ASSERT_EQ(fit.has_value(), expected.has_value()) << "round " << round;
    if (fit) {
      EXPECT_EQ(fit->time, *expected) << "round " << round;
      ResourceState at = profile.profile().state_at(fit->time);
      EXPECT_TRUE(can_apply(at, fit->plan)) << "round " << round;
    }
  }
}

TEST(ProfileFuzz, WindowFitSatisfiesWindowProperty) {
  Rng rng(808);
  const PlacementPolicy policy{NodeSelection::kFirstFit,
                               PoolRouting::kRackThenGlobal};
  for (int round = 0; round < 120; ++round) {
    const ClusterConfig c = fuzz_config(rng);
    ProfileOracle profile(empty_state(c), SimTime{}, &c);
    // Random future holds, each placed with earliest_fit_window so the
    // accumulated set stays mutually consistent (as conservative does).
    for (int k = 0; k < 4; ++k) {
      const Job h = fuzz_job(rng, c);
      const SimTime len = hours(rng.uniform_int(1, 5));
      const auto hold_fit = profile.profile().earliest_fit_window(
          h, policy, [&](const TakePlan&) { return len; });
      if (!hold_fit) continue;
      profile.add_hold(hold_fit->time, hold_fit->time + len, hold_fit->plan);
    }
    const Job q = fuzz_job(rng, c);
    const SimTime duration = hours(rng.uniform_int(1, 8));
    const auto duration_of = [&](const TakePlan&) { return duration; };
    const auto fit =
        profile.profile().earliest_fit_window(q, policy, duration_of);
    const auto expected = profile.earliest_fit_window(q, policy, duration_of);
    ASSERT_EQ(fit.has_value(), expected.has_value()) << "round " << round;
    if (!fit) continue;
    EXPECT_EQ(fit->time, expected->time) << "round " << round;
    EXPECT_EQ(fit->plan, expected->plan) << "round " << round;
    // the plan must be subtractable at every breakpoint in the window
    for (const SimTime t : profile.breakpoints()) {
      if (t < fit->time || t >= fit->time + duration) continue;
      EXPECT_TRUE(can_apply(profile.profile().state_at(t), fit->plan))
          << "round " << round << " at t=" << t.seconds();
    }
  }
}

}  // namespace
}  // namespace dmsched
