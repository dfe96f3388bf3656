// Differential test of the placement kernel: compute_take (order-free
// feasibility test, then a stable insertion sort over an inline key buffer
// that holds only the racks with a free node) against the previous kernel,
// kept here as the reference. The reference allocates and
// std::stable_sort()s a vector of every rack on every probe and rejects
// only after walking the racks. Both must return identical plans, and
// nullopt on the same inputs, for every NodeSelection × PoolRouting with
// the GPU and burst-buffer axes on and off, on machines of 1, 3, 16 and 80
// racks (past the inline buffer). KernelDiff draws its states twice: at
// random, and mostly full, where at least half the racks have no free
// node, many have exactly one, and GPU racks with free nodes may have no
// free device. A kernel that leaves out a rack the greedy could use (one
// with a single free node, say, or one with free nodes but no free device,
// which a job drawing no GPUs can use) places a different plan there.
//
// KernelBoundary puts both sums of the order-free test exactly on their
// boundaries, which random states rarely hit, and checks the routings where
// the sums alone decide; KernelSplit pins a distance-graded job that needs
// all three funding grades.
//
// KernelReuse pins the caller-storage form: one TakePlan planned into over
// and over must always equal a fresh plan, whatever the last probe left in
// it.
//
// KeepsPlan checks keeps_plan, the rule that lets a window fit reuse a plan
// across rows: whenever it says a run of deltas leaves a plan unchanged,
// compute_take on the new state must return exactly that plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "memory/placement.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

// --- The reference kernel ----------------------------------------------------

namespace reference {

/// Rack visit order under a selection policy. Deterministic: ties break on
/// rack index.
std::vector<RackId> rack_order(const ResourceState& state,
                               NodeSelection selection, bool has_deficit) {
  std::vector<RackId> order(state.free_nodes.size());
  std::iota(order.begin(), order.end(), 0);
  auto stable_by = [&](auto key) {
    std::stable_sort(order.begin(), order.end(),
                     [&](RackId a, RackId b) { return key(a) < key(b); });
  };
  switch (selection) {
    case NodeSelection::kFirstFit:
      break;  // index order
    case NodeSelection::kPackRacks:
      // Most free nodes first => job spans the fewest racks.
      stable_by([&](RackId r) {
        return -state.free_nodes[static_cast<std::size_t>(r)];
      });
      break;
    case NodeSelection::kSpreadRacks:
      stable_by([&](RackId r) {
        return state.free_nodes[static_cast<std::size_t>(r)];
      });
      break;
    case NodeSelection::kPoolAware:
      if (has_deficit) {
        // Deficit jobs chase pool-rich racks to avoid the global tier.
        stable_by([&](RackId r) {
          return -state.pool_free[static_cast<std::size_t>(r)].count();
        });
      } else {
        // Local jobs keep away from pool-rich racks, preserving them for
        // deficit jobs; among equals prefer fuller racks (packing).
        stable_by([&](RackId r) {
          return std::pair{state.pool_free[static_cast<std::size_t>(r)].count(),
                           -state.free_nodes[static_cast<std::size_t>(r)]};
        });
      }
      break;
  }
  return order;
}

}  // namespace reference

std::optional<TakePlan> reference_take(const ResourceState& state,
                                      const ClusterConfig& config,
                                      const Job& job, PlacementPolicy policy) {
  TakePlan plan;
  plan.local_per_node = min(job.mem_per_node, config.local_mem_per_node);
  plan.far_per_node = job.mem_per_node - plan.local_per_node;
  const Bytes d = plan.far_per_node;

  // Optional axes. A policy blind to an axis plans as if the axis did not
  // exist (the memory-only instantiation); zero-request jobs take the same
  // code path either way, so legacy traces are byte-identical.
  const std::int32_t g = policy.axes.gpus ? job.gpus_per_node : 0;
  if (policy.axes.burst_buffer && job.bb_bytes > Bytes{0}) {
    if (state.bb_free < job.bb_bytes) return std::nullopt;
    plan.bb_bytes = job.bb_bytes;
  }
  // Per-rack takeable nodes under the GPU axis: each node taken in rack `r`
  // draws `g` devices from that rack's pool.
  const auto gpu_clamped = [&](std::size_t idx, std::int32_t free) {
    if (g <= 0) return free;
    return static_cast<std::int32_t>(std::min<std::int64_t>(
        free, state.free_gpus_in(idx) / g));
  };

  std::int32_t remaining = job.nodes;
  const auto order =
      reference::rack_order(state, policy.selection, !d.is_zero());

  if (d.is_zero()) {
    for (RackId r : order) {
      if (remaining == 0) break;
      const auto idx = static_cast<std::size_t>(r);
      const std::int32_t free = gpu_clamped(idx, state.free_nodes[idx]);
      const std::int32_t take = std::min(free, remaining);
      if (take > 0) {
        plan.takes.push_back(
            {r, take, Bytes{0}, Bytes{0}, static_cast<std::int64_t>(take) * g});
        remaining -= take;
      }
    }
    if (remaining > 0) return std::nullopt;
    return plan;
  }

  // Deficit job: nodes must be funded at d bytes each from some pool.
  const bool rack_ok = policy.routing != PoolRouting::kGlobalOnly;
  const bool global_ok = policy.routing != PoolRouting::kRackOnly;
  // Under the distance-graded routing the global tier is a *last* resort
  // behind foreign rack pools, so the main loop funds rack-only and stage 2
  // below walks the remaining deficit outward by hop distance.
  const bool neighbor_ok = policy.routing == PoolRouting::kRackNeighborGlobal;
  std::int64_t global_node_budget =
      (global_ok && !neighbor_ok) ? state.global_free.count() / d.count() : 0;

  for (RackId r : order) {
    if (remaining == 0) break;
    const auto idx = static_cast<std::size_t>(r);
    std::int32_t free = gpu_clamped(idx, state.free_nodes[idx]);
    if (free == 0) continue;
    RackTake take{r, 0, Bytes{0}, Bytes{0}, 0};
    if (rack_ok) {
      const auto pool_capacity_nodes = static_cast<std::int32_t>(std::min<std::int64_t>(
          state.pool_free[idx].count() / d.count(), free));
      const std::int32_t via_rack =
          std::min(pool_capacity_nodes, remaining);
      if (via_rack > 0) {
        take.nodes += via_rack;
        take.rack_pool_bytes = d * via_rack;
        free -= via_rack;
        remaining -= via_rack;
      }
    }
    if (remaining > 0 && global_node_budget > 0 && free > 0) {
      const auto via_global = static_cast<std::int32_t>(std::min<std::int64_t>(
          {static_cast<std::int64_t>(free), global_node_budget,
           static_cast<std::int64_t>(remaining)}));
      take.nodes += via_global;
      take.global_pool_bytes = d * via_global;
      global_node_budget -= via_global;
      remaining -= via_global;
    }
    if (take.nodes > 0) {
      take.gpus = static_cast<std::int64_t>(take.nodes) * g;
      plan.takes.push_back(take);
    }
  }

  if (neighbor_ok && remaining > 0) {
    // Stage 2 of the distance-graded routing. Nodes first: the hosting set
    // must be final before any draw can be classified own-rack vs neighbor.
    const std::size_t racks_n = state.free_nodes.size();
    std::vector<std::int32_t> taken_nodes(racks_n, 0);
    std::vector<Bytes> taken_pool(racks_n, Bytes{0});
    std::vector<std::ptrdiff_t> slot(racks_n, -1);
    for (std::size_t i = 0; i < plan.takes.size(); ++i) {
      const auto idx = static_cast<std::size_t>(plan.takes[i].rack);
      slot[idx] = static_cast<std::ptrdiff_t>(i);
      taken_nodes[idx] = plan.takes[i].nodes;
      taken_pool[idx] = plan.takes[i].rack_pool_bytes;
    }
    const auto slice = [&](std::size_t idx) -> RackTake& {
      if (slot[idx] < 0) {
        plan.takes.push_back({static_cast<RackId>(idx), 0, Bytes{0}, Bytes{0},
                              0, Bytes{0}});
        slot[idx] = static_cast<std::ptrdiff_t>(plan.takes.size()) - 1;
      }
      return plan.takes[static_cast<std::size_t>(slot[idx])];
    };
    std::int32_t placed = 0;
    for (RackId r : order) {
      if (remaining == 0) break;
      const auto idx = static_cast<std::size_t>(r);
      const std::int32_t avail =
          gpu_clamped(idx, state.free_nodes[idx]) - taken_nodes[idx];
      const std::int32_t take_n = std::min(avail, remaining);
      if (take_n <= 0) continue;
      slice(idx).nodes += take_n;
      taken_nodes[idx] += take_n;
      placed += take_n;
      remaining -= take_n;
    }
    if (remaining > 0) return std::nullopt;
    // Fund the stage-2 deficit outward by hop distance: hosting racks'
    // residual pools, then foreign (neighbor) racks' pools, then the
    // global tier. Rack-index order within each ring keeps it deterministic.
    Bytes deficit = d * placed;
    for (std::size_t idx = 0; idx < racks_n && deficit > Bytes{0}; ++idx) {
      if (taken_nodes[idx] == 0) continue;
      const Bytes use = min(state.pool_free[idx] - taken_pool[idx], deficit);
      if (use > Bytes{0}) {
        slice(idx).rack_pool_bytes += use;
        taken_pool[idx] += use;
        deficit -= use;
      }
    }
    for (std::size_t idx = 0; idx < racks_n && deficit > Bytes{0}; ++idx) {
      if (taken_nodes[idx] != 0) continue;
      const Bytes use = min(state.pool_free[idx] - taken_pool[idx], deficit);
      if (use > Bytes{0}) {
        slice(idx).neighbor_pool_bytes += use;
        taken_pool[idx] += use;
        deficit -= use;
      }
    }
    if (deficit > Bytes{0}) {
      if (state.global_free < deficit) return std::nullopt;
      plan.takes.front().global_pool_bytes += deficit;
    }
    for (auto& t : plan.takes) {
      t.gpus = static_cast<std::int64_t>(t.nodes) * g;
    }
  }

  if (remaining > 0) return std::nullopt;
  return plan;
}


// --- Random machines, states and jobs ---------------------------------------

struct Shape {
  std::int32_t racks;
  bool gpus;
  bool burst_buffer;
};

ClusterConfig random_machine(Rng& rng, const Shape& shape) {
  ClusterConfig c;
  c.name = "kernel-diff";
  c.nodes_per_rack = static_cast<std::int32_t>(rng.uniform_int(1, 8));
  // Sometimes a partial last rack.
  c.total_nodes = c.nodes_per_rack * shape.racks -
                  static_cast<std::int32_t>(
                      rng.uniform_int(0, c.nodes_per_rack - 1));
  c.local_mem_per_node = gib(rng.uniform_int(16, 128));
  c.pool_per_rack = rng.bernoulli(0.8) ? gib(rng.uniform_int(0, 512))
                                       : Bytes{0};
  c.global_pool = rng.bernoulli(0.6) ? gib(rng.uniform_int(0, 2048))
                                     : Bytes{0};
  c.gpus_per_node =
      shape.gpus ? static_cast<std::int32_t>(rng.uniform_int(1, 4)) : 0;
  c.bb_capacity =
      shape.burst_buffer ? gib(rng.uniform_int(64, 512)) : Bytes{0};
  return c;
}

/// Free amounts drawn from a few levels, so equal sort keys (the
/// tie-breaking path) are common.
std::int64_t leveled(Rng& rng, std::int64_t capacity) {
  const std::int64_t level = rng.uniform_int(0, 3);
  return capacity * level / 3;
}

ResourceState random_state(Rng& rng, const ClusterConfig& c) {
  ResourceState s = empty_state(c);
  for (std::size_t r = 0; r < s.free_nodes.size(); ++r) {
    s.free_nodes[r] = static_cast<std::int32_t>(
        rng.bernoulli(0.5) ? leveled(rng, s.free_nodes[r])
                           : rng.uniform_int(0, s.free_nodes[r]));
    s.pool_free[r] = Bytes{leveled(rng, s.pool_free[r].count())};
  }
  for (auto& g : s.free_gpus) g = rng.uniform_int(0, g);
  s.global_free = Bytes{rng.uniform_int(0, s.global_free.count())};
  s.bb_free = Bytes{rng.uniform_int(0, s.bb_free.count())};
  s.recount();
  return s;
}

Job random_job(Rng& rng, const ClusterConfig& c) {
  Job j = testing::job(0)
              .nodes(static_cast<std::int32_t>(
                  rng.uniform_int(1, c.total_nodes + 2)))
              .mem_gib(static_cast<double>(rng.uniform_int(
                  1, 3 * c.local_mem_per_node.count() / kGiB.count())));
  // Wide jobs on big machines rarely fit anything; keep many narrow ones.
  if (rng.bernoulli(0.5)) {
    j.nodes = static_cast<std::int32_t>(
        rng.uniform_int(1, std::min<std::int32_t>(c.total_nodes, 12)));
  }
  if (c.has_gpus() && rng.bernoulli(0.6)) {
    j.gpus_per_node = static_cast<std::int32_t>(rng.uniform_int(1, 5));
  }
  if (c.has_burst_buffer() && rng.bernoulli(0.6)) {
    j.bb_bytes = gib(rng.uniform_int(1, 256));
  }
  return j;
}

constexpr NodeSelection kSelections[] = {
    NodeSelection::kFirstFit, NodeSelection::kPackRacks,
    NodeSelection::kSpreadRacks, NodeSelection::kPoolAware};
constexpr PoolRouting kRoutings[] = {
    PoolRouting::kRackOnly, PoolRouting::kRackThenGlobal,
    PoolRouting::kGlobalOnly, PoolRouting::kRackNeighborGlobal};

/// A machine at most half of whose racks (rounded down) have a free node:
/// the rest are full, like most racks of a loaded machine. Racks with one
/// free node are common, and on GPU machines some racks with free nodes
/// have no free device.
ResourceState mostly_full_state(Rng& rng, const ClusterConfig& c) {
  ResourceState s = empty_state(c);
  std::vector<std::size_t> racks(s.free_nodes.size());
  std::iota(racks.begin(), racks.end(), std::size_t{0});
  for (std::size_t i = racks.size(); i > 1; --i) {
    std::swap(racks[i - 1], racks[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
  const auto n = static_cast<std::int64_t>(racks.size());
  const std::int64_t full = rng.uniform_int((n + 1) / 2, std::max((n + 1) / 2, n - 1));
  for (std::size_t i = 0; i < racks.size(); ++i) {
    const std::size_t r = racks[i];
    s.pool_free[r] = Bytes{leveled(rng, s.pool_free[r].count())};
    if (std::cmp_less(i, full)) {
      s.free_nodes[r] = 0;
      if (c.has_gpus()) s.free_gpus[r] = 0;
      continue;
    }
    s.free_nodes[r] = static_cast<std::int32_t>(
        rng.bernoulli(0.4) ? 1 : rng.uniform_int(1, s.free_nodes[r]));
    if (c.has_gpus()) {
      // The first rack with free nodes has no free device.
      s.free_gpus[r] = std::cmp_equal(i, full) || rng.bernoulli(0.4)
                           ? 0
                           : rng.uniform_int(0, s.free_gpus[r]);
    }
  }
  s.global_free = Bytes{rng.uniform_int(0, s.global_free.count())};
  s.bb_free = Bytes{rng.uniform_int(0, s.bb_free.count())};
  s.recount();
  return s;
}

/// compute_take against the reference kernel on `s` for every selection,
/// routing and axes combination; counts the fits and rejects.
void diff_every_policy(const ResourceState& s, const ClusterConfig& c,
                       const Job& j, int round, int& fits, int& rejects) {
  for (const NodeSelection sel : kSelections) {
    for (const PoolRouting route : kRoutings) {
      for (const bool all_axes : {false, true}) {
        const PlacementPolicy policy{
            sel, route,
            all_axes ? ResourceAxes::all() : ResourceAxes::memory_only()};
        const auto got = compute_take(s, c, j, policy);
        const auto want = reference_take(s, c, j, policy);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "round " << round << " " << to_string(sel) << "/"
            << to_string(route) << " axes=" << all_axes;
        if (!got) {
          ++rejects;
          continue;
        }
        ++fits;
        EXPECT_EQ(*got, *want)
            << "round " << round << " " << to_string(sel) << "/"
            << to_string(route) << " axes=" << all_axes;
      }
    }
  }
}

class KernelDiff : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(KernelDiff, MatchesReferenceKernel) {
  const std::int32_t racks = GetParam();
  Rng rng(static_cast<std::uint64_t>(4242 + racks));
  int fits = 0;
  int rejects = 0;
  const int rounds = racks > 16 ? 60 : 150;
  for (int round = 0; round < rounds; ++round) {
    const Shape shape{racks, rng.bernoulli(0.5), rng.bernoulli(0.5)};
    const ClusterConfig c = random_machine(rng, shape);
    ASSERT_EQ(c.racks(), racks);
    const ResourceState s = random_state(rng, c);
    for (int k = 0; k < 8; ++k) {
      diff_every_policy(s, c, random_job(rng, c), round, fits, rejects);
      if (HasFatalFailure()) return;
    }
  }
  // Both outcomes must be well represented.
  EXPECT_GT(fits, 500);
  EXPECT_GT(rejects, 500);
}

TEST_P(KernelDiff, MatchesReferenceOnMostlyFullMachines) {
  const std::int32_t racks = GetParam();
  Rng rng(static_cast<std::uint64_t>(5353 + racks));
  int fits = 0;
  int rejects = 0;
  const int rounds = racks > 16 ? 60 : 150;
  for (int round = 0; round < rounds; ++round) {
    const Shape shape{racks, rng.bernoulli(0.5), rng.bernoulli(0.5)};
    const ClusterConfig c = random_machine(rng, shape);
    ASSERT_EQ(c.racks(), racks);
    const ResourceState s = mostly_full_state(rng, c);
    for (int k = 0; k < 8; ++k) {
      Job j = random_job(rng, c);
      // Mostly narrow: few nodes are free.
      if (rng.bernoulli(0.7)) {
        j.nodes = static_cast<std::int32_t>(rng.uniform_int(
            1, std::max<std::int32_t>(1, s.free_nodes_total)));
      }
      diff_every_policy(s, c, j, round, fits, rejects);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(rejects, 500);
  // A one-rack machine is all full; every other shape must also fit.
  if (racks > 1) {
    EXPECT_GT(fits, 500);
  }
}

INSTANTIATE_TEST_SUITE_P(RackCounts, KernelDiff,
                         ::testing::Values(1, 3, 16, 80));

// --- Boundaries of the order-free feasibility test ---------------------------

/// Takeable nodes: Σ per-rack free nodes, clamped by GPUs when g > 0.
std::int64_t takeable_nodes(const ResourceState& s, std::int32_t g) {
  std::int64_t n = 0;
  for (std::size_t r = 0; r < s.free_nodes.size(); ++r) {
    n += g > 0 ? std::min<std::int64_t>(s.free_nodes[r], s.free_gpus_in(r) / g)
               : s.free_nodes[r];
  }
  return n;
}

/// Sets the free bytes of the tiers `route` may draw from to exactly
/// `total`, split at random between rack pools and the global tier.
void set_tier_bytes(Rng& rng, ResourceState& s, PoolRouting route,
                    std::int64_t total) {
  const bool rack_ok = route != PoolRouting::kGlobalOnly;
  const bool global_ok = route != PoolRouting::kRackOnly;
  std::int64_t left = total;
  if (global_ok) {
    s.global_free = Bytes{rack_ok ? rng.uniform_int(0, left) : left};
    left -= s.global_free.count();
  }
  if (!rack_ok) return;
  for (std::size_t r = 0; r + 1 < s.pool_free.size(); ++r) {
    s.pool_free[r] = Bytes{rng.bernoulli(0.3) ? 0 : rng.uniform_int(0, left)};
    left -= s.pool_free[r].count();
  }
  s.pool_free.back() = Bytes{left};
  // Spread the last rack's remainder so no rack is always the rich one.
  std::swap(s.pool_free.back(),
            s.pool_free[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(
                                       s.pool_free.size()) - 1))]);
  s.recount();
}

/// Both sums of the test on their boundaries: takeable nodes N at
/// nodes - 1, nodes and nodes + 1, and the routing's tier bytes at
/// d·nodes - 1, d·nodes and d·nodes + 1. Local-only jobs (d == 0) and the
/// kGlobalOnly and kRackNeighborGlobal routings fit exactly when both sums
/// suffice; kRackOnly and kRackThenGlobal must at least reject when either
/// falls short. The reference kernel must agree on every probe.
class KernelBoundary : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(KernelBoundary, SumsDecideExactlyWhereProved) {
  const std::int32_t racks = GetParam();
  Rng rng(static_cast<std::uint64_t>(9001 + racks));
  int fits = 0;
  int rejects = 0;
  int exact_probes = 0;
  for (int round = 0; round < 40; ++round) {
    const bool gpu_machine = rng.bernoulli(0.5);
    const ClusterConfig c = random_machine(rng, Shape{racks, gpu_machine, false});
    for (const bool all_axes : {false, true}) {
      const ResourceAxes axes =
          all_axes ? ResourceAxes::all() : ResourceAxes::memory_only();
      for (const PoolRouting route : kRoutings) {
        for (const NodeSelection sel : kSelections) {
          const PlacementPolicy policy{sel, route, axes};
          ResourceState s = random_state(rng, c);
          Job j = testing::job(0);
          if (c.has_gpus() && rng.bernoulli(0.7)) {
            j.gpus_per_node = static_cast<std::int32_t>(rng.uniform_int(1, 3));
          }
          const std::int32_t g = axes.gpus ? j.gpus_per_node : 0;
          const std::int64_t n = takeable_nodes(s, g);
          for (const int dn : {-1, 0, 1}) {
            // N = nodes + dn.
            const std::int64_t nodes = n - dn;
            if (nodes < 1) continue;
            j.nodes = static_cast<std::int32_t>(nodes);
            for (const bool deficit : {false, true}) {
              const std::int64_t d =
                  deficit ? rng.uniform_int(1, 3) * kGiB.count() +
                                rng.uniform_int(0, 1)
                          : 0;
              j.mem_per_node = c.local_mem_per_node + Bytes{d};
              for (const int db : {-1, 0, 1}) {
                if (!deficit && db != 0) continue;
                // Tier bytes = d·nodes + db.
                if (deficit) set_tier_bytes(rng, s, route, d * nodes + db);
                const auto got = compute_take(s, c, j, policy);
                const auto want = reference_take(s, c, j, policy);
                const std::string where =
                    "round " + std::to_string(round) + " " + to_string(sel) +
                    "/" + to_string(route) + " axes=" +
                    std::to_string(all_axes) + " dN=" + std::to_string(dn) +
                    " dB=" + std::to_string(db) + " d=" + std::to_string(d);
                ASSERT_EQ(got.has_value(), want.has_value()) << where;
                if (got) {
                  ++fits;
                  EXPECT_EQ(*got, *want) << where;
                } else {
                  ++rejects;
                }
                const bool sums_fit = dn >= 0 && db >= 0;
                if (!sums_fit) {
                  EXPECT_FALSE(got.has_value()) << where;
                }
                if (!deficit || route == PoolRouting::kGlobalOnly ||
                    route == PoolRouting::kRackNeighborGlobal) {
                  ++exact_probes;
                  EXPECT_EQ(got.has_value(), sums_fit) << where;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(fits, 200);
  EXPECT_GT(rejects, 200);
  EXPECT_GT(exact_probes, 500);
}

INSTANTIATE_TEST_SUITE_P(RackCounts, KernelBoundary,
                         ::testing::Values(1, 16, 80));

/// A shared-neighbors job that fits only by funding its deficit from all
/// three grades: its hosting rack's pool, a neighbor rack's pool and the
/// global tier. One byte less anywhere and no order can place it.
TEST(KernelSplit, SharedNeighborsFundsFromAllThreeGrades) {
  const ClusterConfig c = testing::machine(12, 64.0, 32.0, 64.0);  // 3 racks
  ResourceState s = empty_state(c);
  s.free_nodes = {4, 0, 0};  // only rack 0 can host
  s.pool_free = {gib(10.0), gib(20.0), Bytes{0}};
  s.global_free = gib(30.0);
  s.recount();
  // 4 nodes × 15 GiB far = 60 GiB = 10 (own rack) + 20 (neighbor) + 30.
  const Job j = testing::job(0).nodes(4).mem_gib(64.0 + 15.0);
  for (const NodeSelection sel : kSelections) {
    const PlacementPolicy policy{sel, PoolRouting::kRackNeighborGlobal,
                                 ResourceAxes::memory_only()};
    const auto got = compute_take(s, c, j, policy);
    ASSERT_TRUE(got.has_value()) << to_string(sel);
    EXPECT_EQ(got, reference_take(s, c, j, policy)) << to_string(sel);
    ASSERT_EQ(got->takes.size(), 2U);
    EXPECT_EQ(got->takes[0],
              (RackTake{0, 4, gib(10.0), gib(30.0), 0, Bytes{0}}));
    EXPECT_EQ(got->takes[1], (RackTake{1, 0, Bytes{0}, Bytes{0}, 0, gib(20.0)}));
    // Every grade is needed: one byte short on any of them rejects.
    for (Bytes* tier : {&s.pool_free[0], &s.pool_free[1], &s.global_free}) {
      *tier -= Bytes{1};
      s.recount();
      EXPECT_FALSE(compute_take(s, c, j, policy).has_value()) << to_string(sel);
      EXPECT_FALSE(reference_take(s, c, j, policy).has_value())
          << to_string(sel);
      *tier += Bytes{1};
      s.recount();
    }
    // No routing without neighbor draws can fund it.
    for (const PoolRouting route :
         {PoolRouting::kRackOnly, PoolRouting::kRackThenGlobal,
          PoolRouting::kGlobalOnly}) {
      const PlacementPolicy other{sel, route, ResourceAxes::memory_only()};
      EXPECT_FALSE(compute_take(s, c, j, other).has_value()) << to_string(sel);
    }
  }
}

// --- One plan reused across probes -------------------------------------------

/// What a reused plan must survive: the previous probe's fields left behind.
struct ReuseCounts {
  int fits = 0;
  int rejects = 0;
  int fit_after_reject = 0;
  int fits_per_routing[4] = {};
  int neighbor_draws = 0;  // the distance-graded stage 2 ran
  int bb = 0;
  int gpus = 0;
  int deficit = 0;
  int plain = 0;  // no burst buffer, GPU or deficit request
  int bb_then_none = 0;  // a burst-buffer fit, then a fit without one
};

TEST(KernelReuse, ReusedPlanEqualsFreshPlan) {
  Rng rng(20261017);
  ReuseCounts counts;
  TakePlan reused;
  bool last_rejected = false;
  bool last_had_bb = false;
  constexpr std::int32_t kRacks[] = {1, 3, 16, 80};
  for (int round = 0; round < 600; ++round) {
    const Shape shape{kRacks[rng.uniform_int(0, 3)], rng.bernoulli(0.5),
                      rng.bernoulli(0.5)};
    const ClusterConfig c = random_machine(rng, shape);
    const ResourceState s = random_state(rng, c);
    for (int k = 0; k < 6; ++k) {
      const Job j = random_job(rng, c);
      const auto route_idx = static_cast<std::size_t>(rng.uniform_int(0, 3));
      const PlacementPolicy policy{
          kSelections[rng.uniform_int(0, 3)], kRoutings[route_idx],
          rng.bernoulli(0.5) ? ResourceAxes::all()
                             : ResourceAxes::memory_only()};
      const bool fits = compute_take(s, c, j, policy, reused);
      const auto fresh = compute_take(s, c, j, policy);
      ASSERT_EQ(fits, fresh.has_value()) << "round " << round << " probe " << k;
      if (!fits) {
        ++counts.rejects;
        last_rejected = true;
        continue;
      }
      ASSERT_EQ(reused, *fresh) << "round " << round << " probe " << k;
      ++counts.fits;
      ++counts.fits_per_routing[route_idx];
      if (last_rejected) ++counts.fit_after_reject;
      if (last_had_bb && reused.bb_bytes.is_zero()) ++counts.bb_then_none;
      last_rejected = false;
      last_had_bb = !reused.bb_bytes.is_zero();
      if (!reused.neighbor_pool_total().is_zero()) ++counts.neighbor_draws;
      if (last_had_bb) ++counts.bb;
      const bool gpus = std::any_of(
          reused.takes.begin(), reused.takes.end(),
          [](const RackTake& t) { return t.gpus > 0; });
      if (gpus) ++counts.gpus;
      if (!reused.far_per_node.is_zero()) ++counts.deficit;
      if (!last_had_bb && !gpus &&
          reused.far_per_node.is_zero()) {
        ++counts.plain;
      }
    }
  }
  // Every routing, request mix and stale-field hazard was exercised.
  for (const int n : counts.fits_per_routing) EXPECT_GT(n, 100);
  EXPECT_GT(counts.rejects, 300);
  EXPECT_GT(counts.fit_after_reject, 100);
  EXPECT_GT(counts.neighbor_draws, 10);
  EXPECT_GT(counts.bb, 50);
  EXPECT_GT(counts.gpus, 50);
  EXPECT_GT(counts.deficit, 100);
  EXPECT_GT(counts.plain, 50);
  EXPECT_GT(counts.bb_then_none, 30);
}

// --- Plans kept across deltas -----------------------------------------------

/// Up to `hi` in steps drawn from a few levels, so amounts that exactly
/// empty or refill a rack are common.
std::int64_t some(Rng& rng, std::int64_t hi) {
  if (hi <= 0) return 0;
  return rng.bernoulli(0.5) ? leveled(rng, hi) : rng.uniform_int(0, hi);
}

/// A random change to `s` within the machine's capacities: resources taken
/// (`adds` false) or returned, on a few racks, sometimes with global or
/// burst-buffer bytes. The returned delta has been folded into `s`.
TakePlan random_delta(Rng& rng, const ClusterConfig& c, ResourceState& s,
                      bool adds) {
  const ResourceState cap = empty_state(c);
  TakePlan delta;
  const auto racks = static_cast<std::int64_t>(s.free_nodes.size());
  const std::int64_t slices = rng.uniform_int(rng.bernoulli(0.1) ? 0 : 1, 3);
  for (std::int64_t i = 0; i < slices; ++i) {
    const auto r = static_cast<std::size_t>(rng.uniform_int(0, racks - 1));
    const bool again = std::any_of(
        delta.takes.begin(), delta.takes.end(),
        [r](const RackTake& t) {
          return static_cast<std::size_t>(t.rack) == r;
        });
    if (again) continue;
    RackTake t{static_cast<RackId>(r)};
    const auto room = [&](std::int64_t free, std::int64_t capacity) {
      return some(rng, adds ? capacity - free : free);
    };
    t.nodes = static_cast<std::int32_t>(
        room(s.free_nodes[r], cap.free_nodes[r]));
    t.rack_pool_bytes =
        Bytes{room(s.pool_free[r].count(), cap.pool_free[r].count())};
    if (c.has_gpus()) t.gpus = room(s.free_gpus[r], cap.free_gpus[r]);
    delta.takes.push_back(t);
  }
  if (!delta.takes.empty() && rng.bernoulli(0.3)) {
    delta.takes.front().global_pool_bytes = Bytes{
        some(rng, adds ? cap.global_free.count() - s.global_free.count()
                       : s.global_free.count())};
  }
  if (c.has_burst_buffer() && rng.bernoulli(0.3)) {
    delta.bb_bytes =
        Bytes{some(rng, adds ? cap.bb_free.count() - s.bb_free.count()
                             : s.bb_free.count())};
  }
  if (adds) {
    release_take(s, delta);
  } else {
    apply_take(s, delta);
  }
  return delta;
}

struct KeepCounts {
  int plans = 0;
  int kept = 0;           // every delta of the run kept the plan
  int kept_touched = 0;   // ... and at least one touched a rack
  int changed = 0;        // compute_take's answer moved (or it rejected)
};

/// For each fitting plan, fold a run of one to three random deltas, asking
/// keeps_plan after each fold. When every answer is yes, compute_take on the
/// final state must return the plan unchanged.
class KeepsPlan : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(KeepsPlan, UnchangedVerdictMeansComputeTakeRepeats) {
  const std::int32_t racks = GetParam();
  Rng rng(static_cast<std::uint64_t>(777 + racks));
  KeepCounts counts;
  constexpr PoolRouting kKeptRoutings[] = {PoolRouting::kRackOnly,
                                           PoolRouting::kRackThenGlobal,
                                           PoolRouting::kGlobalOnly};
  for (int round = 0; round < 120; ++round) {
    const Shape shape{racks, rng.bernoulli(0.5), rng.bernoulli(0.5)};
    const ClusterConfig c = random_machine(rng, shape);
    const ResourceState s = random_state(rng, c);
    for (int k = 0; k < 6; ++k) {
      const Job j = random_job(rng, c);
      for (const NodeSelection sel : kSelections) {
        for (const PoolRouting route : kKeptRoutings) {
          for (const bool all_axes : {false, true}) {
            const PlacementPolicy policy{
                sel, route,
                all_axes ? ResourceAxes::all() : ResourceAxes::memory_only()};
            const auto plan = compute_take(s, c, j, policy);
            if (!plan) continue;
            ++counts.plans;
            ResourceState after = s;
            bool kept = true;
            bool touched = false;
            const std::int64_t folds =
                rng.bernoulli(0.7) ? 1 : rng.uniform_int(2, 3);
            for (std::int64_t f = 0; f < folds; ++f) {
              const TakePlan delta =
                  random_delta(rng, c, after, rng.bernoulli(0.5));
              touched = touched || !delta.takes.empty();
              kept = kept && keeps_plan(s, *plan, policy, delta, after);
            }
            const auto again = compute_take(after, c, j, policy);
            if (again != plan) ++counts.changed;
            if (!kept) continue;
            ++counts.kept;
            if (touched) ++counts.kept_touched;
            ASSERT_EQ(again, plan)
                << "round " << round << " " << to_string(sel) << "/"
                << to_string(route) << " axes=" << all_axes;
          }
        }
      }
    }
  }
  // Both verdicts are common, and so are deltas that move the plan. On one
  // rack every slice lands on the rack the greedy read, so only slice-less
  // deltas (burst buffer alone) are kept.
  EXPECT_GT(counts.plans, 1000);
  EXPECT_GT(counts.changed * 10, counts.plans);
  if (racks == 1) {
    EXPECT_GT(counts.kept, 20);
    EXPECT_EQ(counts.kept_touched, 0);
  } else {
    EXPECT_GT(counts.kept * 5, counts.plans);
    EXPECT_GT(counts.kept_touched * 5, counts.plans);
  }
}

INSTANTIATE_TEST_SUITE_P(RackCounts, KeepsPlan, ::testing::Values(1, 16, 80));

/// The distance-graded routing's stage 2 reads every rack: never kept, not
/// even across an empty delta.
TEST(KeepsPlanRouting, SharedNeighborsNeverKeeps) {
  const ClusterConfig c = testing::machine(12, 64.0, 32.0, 64.0);
  const ResourceState s = empty_state(c);
  const Job j = testing::job(0).nodes(2).mem_gib(80.0);
  for (const NodeSelection sel : kSelections) {
    const PlacementPolicy policy{sel, PoolRouting::kRackNeighborGlobal,
                                 ResourceAxes::memory_only()};
    const auto plan = compute_take(s, c, j, policy);
    ASSERT_TRUE(plan.has_value());
    EXPECT_FALSE(keeps_plan(s, *plan, policy, TakePlan{}, s));
  }
}

}  // namespace
}  // namespace dmsched
