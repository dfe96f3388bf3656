#include "memory/placement.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "common/assert.hpp"

namespace dmsched {

Bytes TakePlan::global_total() const {
  Bytes total{};
  for (const auto& t : takes) total += t.global_pool_bytes;
  return total;
}

Bytes TakePlan::rack_pool_total() const {
  Bytes total{};
  for (const auto& t : takes) total += t.rack_pool_bytes;
  return total;
}

Bytes TakePlan::neighbor_pool_total() const {
  Bytes total{};
  for (const auto& t : takes) total += t.neighbor_pool_bytes;
  return total;
}

std::int32_t TakePlan::node_total() const {
  std::int32_t n = 0;
  for (const auto& t : takes) n += t.nodes;
  return n;
}

namespace {

/// A rack's place in the visit order: racks are visited in ascending
/// (major, minor), ties broken on rack index.
struct RackKey {
  std::int64_t major;
  std::int64_t minor;
  RackId rack;
};

[[nodiscard]] bool key_before(const RackKey& a, const RackKey& b) {
  return a.major != b.major ? a.major < b.major : a.minor < b.minor;
}

/// Racks whose per-rack scratch fits on the stack; larger machines use the
/// heap.
constexpr std::size_t kInlineRacks = 64;

/// One `T` per rack, every slot set to `init`: on the stack up to
/// kInlineRacks racks, so the kernel's bookkeeping never allocates there.
template <class T>
class RackScratch {
 public:
  RackScratch(std::size_t racks, const T& init) {
    if (racks > kInlineRacks) {
      heap_.assign(racks, init);
      slots_ = heap_;
    } else {
      slots_ = std::span<T>(inline_).first(racks);
      std::fill(slots_.begin(), slots_.end(), init);
    }
  }
  RackScratch(const RackScratch&) = delete;
  RackScratch& operator=(const RackScratch&) = delete;

  [[nodiscard]] std::span<T> slots() { return slots_; }
  T& operator[](std::size_t r) { return slots_[r]; }

 private:
  std::array<T, kInlineRacks> inline_;
  std::vector<T> heap_;
  std::span<T> slots_;
};

/// Rack `r`'s key in the visit order under a selection policy, written
/// into `k`.
void rack_key(const ResourceState& state, NodeSelection selection,
              bool has_deficit, std::size_t r, RackKey& k) {
  k = {0, 0, static_cast<RackId>(r)};
  const std::int64_t free = state.free_nodes[r];
  const std::int64_t pool = state.pool_free[r].count();
  switch (selection) {
    case NodeSelection::kFirstFit:
      break;  // index order
    case NodeSelection::kPackRacks:
      // Most free nodes first => job spans the fewest racks.
      k.major = -free;
      break;
    case NodeSelection::kSpreadRacks:
      // Fewest free nodes first, so wide jobs spread over many racks.
      k.major = free;
      break;
    case NodeSelection::kPoolAware:
      if (has_deficit) {
        // Deficit jobs chase pool-rich racks to avoid the global tier.
        k.major = -pool;
      } else {
        // Local jobs keep away from pool-rich racks, preserving them for
        // deficit jobs; among equals prefer fuller racks (packing).
        k.major = pool;
        k.minor = -free;
      }
      break;
  }
}

/// Rack visit order under a selection policy: the racks with a free node,
/// keyed into the front of `keys` (one slot per rack) and sorted there.
/// Returns how many there are. Deterministic: ties break on rack index.
/// Every greedy loop in compute_take skips a rack with no free node (it
/// can take no node there), stage 2 of the distance-graded routing
/// included, so leaving those racks out changes no plan; keeps_plan still
/// compares keys over every rack, a superset of what the greedy reads.
std::size_t rack_order(const ResourceState& state, NodeSelection selection,
                       bool has_deficit, std::span<RackKey> keys) {
  std::size_t n = 0;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    if (state.free_nodes[r] > 0) {
      rack_key(state, selection, has_deficit, r, keys[n++]);
    }
  }
  if (selection == NodeSelection::kFirstFit) return n;
  // Stable insertion sort: a key moves only past strictly greater keys.
  for (std::size_t i = 1; i < n; ++i) {
    const RackKey k = keys[i];
    std::size_t j = i;
    for (; j > 0 && key_before(k, keys[j - 1]); --j) keys[j] = keys[j - 1];
    keys[j] = k;
  }
  return n;
}

/// The total order the stable sort realizes: (major, minor, rack index).
[[nodiscard]] bool visited_after(const RackKey& a, const RackKey& b) {
  if (a.major != b.major) return a.major > b.major;
  if (a.minor != b.minor) return a.minor > b.minor;
  return a.rack > b.rack;
}

}  // namespace

bool keeps_plan(const ResourceState& built_on, const TakePlan& plan,
                PlacementPolicy policy, const TakePlan& delta,
                const ResourceState& after) {
  // Stage 2 of the distance-graded routing reads every rack.
  if (policy.routing == PoolRouting::kRackNeighborGlobal ||
      plan.takes.empty()) {
    return false;
  }
  if (!plan.bb_bytes.is_zero() && !delta.bb_bytes.is_zero()) return false;
  const bool has_deficit = !plan.far_per_node.is_zero();
  // The greedy's global node budget: read by deficit jobs that may draw
  // from the global tier.
  const bool reads_global =
      has_deficit && policy.routing != PoolRouting::kRackOnly;
  // The greedy visits racks in key order and stops at the rack of the
  // plan's last slice: the racks it read are those keyed at or before it.
  RackKey last{};
  rack_key(built_on, policy.selection, has_deficit,
           static_cast<std::size_t>(plan.takes.back().rack), last);
  for (const RackTake& t : delta.takes) {
    if (reads_global && !t.global_pool_bytes.is_zero()) return false;
    const auto r = static_cast<std::size_t>(t.rack);
    RackKey key{};
    rack_key(built_on, policy.selection, has_deficit, r, key);
    if (!visited_after(key, last)) return false;  // the greedy read it
    rack_key(after, policy.selection, has_deficit, r, key);
    if (!visited_after(key, last)) return false;  // now it would
  }
  return true;
}

namespace {

/// Nodes rack `idx` can host when each draws `g` devices from its GPU pool.
std::int32_t gpu_clamped(const ResourceState& state, std::size_t idx,
                         std::int32_t g) {
  const std::int32_t free = state.free_nodes[idx];
  if (g <= 0) return free;
  return static_cast<std::int32_t>(
      std::min<std::int64_t>(free, state.free_gpus_in(idx) / g));
}

/// Nodes the greedy in compute_take places before it runs out of
/// resources, whatever the rack order, for a deficit job (`d > 0`) whose
/// routing funds nodes from their own rack's pool: kRackOnly (`global_ok`
/// false) or kRackThenGlobal.
///
/// A rack with f takeable nodes funds c = min(f, pool / d) of them from its
/// own pool, then up to f - c more from the global budget. A visit that does
/// not finish the job takes all c, plus min(f - c, budget left); those
/// global takes sum to min(G, L) in any order, where G = global / d (0
/// without global routing) and L = Σ(f - c). So a greedy that never
/// finishes places R + min(G, L) nodes, R = Σc, and it finishes exactly
/// when that reaches the job's node count.
std::int64_t greedy_capacity(const ResourceState& state, Bytes d,
                             std::int32_t g, bool global_ok) {
  std::int64_t via_rack = 0;
  std::int64_t leftover = 0;
  for (std::size_t idx = 0; idx < state.free_nodes.size(); ++idx) {
    const std::int64_t free = gpu_clamped(state, idx, g);
    const std::int64_t c =
        std::min(free, state.pool_free[idx].count() / d.count());
    via_rack += c;
    leftover += free - c;
  }
  const std::int64_t global_nodes =
      global_ok ? state.global_free.count() / d.count() : 0;
  return via_rack + std::min(global_nodes, leftover);
}

/// Whether the greedy in compute_take places and funds all of `job`,
/// decided before any rack is ordered. Let N = Σf, the takeable nodes, and
/// B the free bytes of the tiers the routing may use (Σ rack pools unless
/// kGlobalOnly, plus the global tier unless kRackOnly). N >= nodes and
/// B >= d·nodes are necessary under every routing. They are also
/// sufficient, so the sums are the exact answer:
///  - d == 0: the greedy takes min(f, remaining) per rack in any order, so
///    it places every node iff N >= nodes; no tier is drawn.
///  - kGlobalOnly: each rack takes min(f, budget left, remaining) from a
///    budget of global / d nodes, so the greedy places min(global / d, N,
///    nodes) in any order, and global / d >= nodes iff global >= d·nodes.
///  - kRackNeighborGlobal: stage 1 and stage 2 together may take all f of
///    every rack, so stage 2 places the rest iff N >= nodes. Stage 1 drew
///    d·n1 bytes from its racks' own pools; stage 2 then funds d·n2 bytes
///    (n1 + n2 = nodes) from any rack's residual pool (hosting racks first,
///    then neighbors) and then from the global tier. Residual pools sum to
///    Σpool - d·n1, so the global tier is left max(0, d·nodes - Σpool)
///    bytes, which it covers iff B >= d·nodes.
/// kRackOnly and kRackThenGlobal deficit jobs cannot move bytes between
/// racks, so for them the sums only pre-filter and greedy_capacity decides.
///
/// The caller has already tested totals_admit: Σ free nodes >= nodes and
/// B >= d·nodes, both from the state's kept totals. Without GPUs
/// (`g == 0`) f is the rack's free count, so N is that total and the
/// first sum is decided; with them f is clamped per rack, N <= the total,
/// and one pass recounts it.
bool greedy_fits(const ResourceState& state, const Job& job, Bytes d,
                 std::int32_t g, bool rack_ok, bool global_ok,
                 bool neighbor_ok) {
  if (g > 0) {
    std::int64_t takeable = 0;
    for (std::size_t idx = 0; idx < state.free_nodes.size(); ++idx) {
      takeable += gpu_clamped(state, idx, g);
    }
    if (takeable < job.nodes) return false;
  }
  if (d.is_zero() || neighbor_ok || !rack_ok) return true;
  return greedy_capacity(state, d, g, global_ok) >= job.nodes;
}

}  // namespace

bool kernel_admits(const ResourceState& state, const ClusterConfig& config,
                   const Job& job, PlacementPolicy policy) {
  if (!totals_admit(state, config, job, policy)) return false;
  const Bytes d =
      job.mem_per_node - min(job.mem_per_node, config.local_mem_per_node);
  const std::int32_t g = policy.axes.gpus ? job.gpus_per_node : 0;
  return greedy_fits(state, job, d, g,
                     policy.routing != PoolRouting::kGlobalOnly,
                     policy.routing != PoolRouting::kRackOnly,
                     policy.routing == PoolRouting::kRackNeighborGlobal);
}

bool compute_take(const ResourceState& state, const ClusterConfig& config,
                  const Job& job, PlacementPolicy policy, TakePlan& plan) {
  DMSCHED_ASSERT(state.free_nodes.size() ==
                     static_cast<std::size_t>(config.racks()),
                 "compute_take: state shape mismatch");
  // Overwrite every field before the first early return: `plan` may hold
  // an earlier probe's result.
  plan.local_per_node = min(job.mem_per_node, config.local_mem_per_node);
  plan.far_per_node = job.mem_per_node - plan.local_per_node;
  plan.bb_bytes = Bytes{0};
  plan.takes.clear();
  const Bytes d = plan.far_per_node;

#ifndef NDEBUG
  DMSCHED_ASSERT(state.totals_match(),
                 "compute_take: the state's kept totals are stale");
#endif
  // Decide before ordering racks: whether the greedy below places and funds
  // every node does not depend on the order, so past this point the kernel
  // cannot fail.
  if (!kernel_admits(state, config, job, policy)) return false;
  // Optional axes. A policy blind to an axis plans as if the axis did not
  // exist (the memory-only instantiation); zero-request jobs take the same
  // code path either way, so legacy traces are byte-identical.
  const std::int32_t g = policy.axes.gpus ? job.gpus_per_node : 0;
  if (policy.axes.burst_buffer && job.bb_bytes > Bytes{0}) {
    plan.bb_bytes = job.bb_bytes;
  }

  const bool rack_ok = policy.routing != PoolRouting::kGlobalOnly;
  const bool global_ok = policy.routing != PoolRouting::kRackOnly;
  // Under the distance-graded routing the global tier is a *last* resort
  // behind foreign rack pools, so the main loop funds rack-only and stage 2
  // below walks the remaining deficit outward by hop distance.
  const bool neighbor_ok = policy.routing == PoolRouting::kRackNeighborGlobal;

  const std::size_t racks_n = state.free_nodes.size();
  RackScratch<RackKey> keys(racks_n, RackKey{});
  // Only the racks with a free node: the greedy would skip the rest.
  const std::span<RackKey> order = keys.slots().first(
      rack_order(state, policy.selection, !d.is_zero(), keys.slots()));

  std::int32_t remaining = job.nodes;
  if (d.is_zero()) {
    for (const RackKey& k : order) {
      if (remaining == 0) break;
      const std::int32_t free =
          gpu_clamped(state, static_cast<std::size_t>(k.rack), g);
      const std::int32_t take = std::min(free, remaining);
      if (take > 0) {
        plan.takes.push_back({k.rack, take, Bytes{0}, Bytes{0},
                              static_cast<std::int64_t>(take) * g});
        remaining -= take;
      }
    }
    DMSCHED_ASSERT(remaining == 0, "compute_take: greedy_fits disagrees");
    return true;
  }

  // Deficit job: nodes must be funded at d bytes each from some pool.
  std::int64_t global_node_budget =
      (global_ok && !neighbor_ok) ? state.global_free.count() / d.count() : 0;

  for (const RackKey& k : order) {
    if (remaining == 0) break;
    const auto idx = static_cast<std::size_t>(k.rack);
    std::int32_t free = gpu_clamped(state, idx, g);
    if (free == 0) continue;
    RackTake take{k.rack, 0, Bytes{0}, Bytes{0}, 0};
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
  DMSCHED_ASSERT(neighbor_ok || remaining == 0,
                 "compute_take: greedy_fits disagrees");

  if (neighbor_ok && remaining > 0) {
    // Stage 2 of the distance-graded routing. Nodes first: the hosting set
    // must be final before any draw can be classified own-rack vs neighbor.
    // Per rack: nodes and pool bytes taken so far, and the rack's slice in
    // plan.takes (-1 while it has none).
    struct Tally {
      std::int32_t nodes;
      Bytes pool;
      std::ptrdiff_t slot;
    };
    RackScratch<Tally> tally(racks_n, Tally{0, Bytes{0}, -1});
    for (std::size_t i = 0; i < plan.takes.size(); ++i) {
      Tally& t = tally[static_cast<std::size_t>(plan.takes[i].rack)];
      t = {plan.takes[i].nodes, plan.takes[i].rack_pool_bytes,
           static_cast<std::ptrdiff_t>(i)};
    }
    const auto slice = [&](std::size_t idx) -> RackTake& {
      std::ptrdiff_t& slot = tally[idx].slot;
      if (slot < 0) {
        plan.takes.push_back({static_cast<RackId>(idx), 0, Bytes{0}, Bytes{0},
                              0, Bytes{0}});
        slot = static_cast<std::ptrdiff_t>(plan.takes.size()) - 1;
      }
      return plan.takes[static_cast<std::size_t>(slot)];
    };
    std::int32_t placed = 0;
    for (const RackKey& k : order) {
      if (remaining == 0) break;
      const auto idx = static_cast<std::size_t>(k.rack);
      const std::int32_t avail = gpu_clamped(state, idx, g) - tally[idx].nodes;
      const std::int32_t take_n = std::min(avail, remaining);
      if (take_n <= 0) continue;
      slice(idx).nodes += take_n;
      tally[idx].nodes += take_n;
      placed += take_n;
      remaining -= take_n;
    }
    DMSCHED_ASSERT(remaining == 0, "compute_take: greedy_fits disagrees");
    // Fund the stage-2 deficit outward by hop distance: hosting racks'
    // residual pools, then foreign (neighbor) racks' pools, then the
    // global tier. Rack-index order within each ring keeps it deterministic.
    Bytes deficit = d * placed;
    for (std::size_t idx = 0; idx < racks_n && deficit > Bytes{0}; ++idx) {
      if (tally[idx].nodes == 0) continue;
      const Bytes use = min(state.pool_free[idx] - tally[idx].pool, deficit);
      if (use > Bytes{0}) {
        slice(idx).rack_pool_bytes += use;
        tally[idx].pool += use;
        deficit -= use;
      }
    }
    for (std::size_t idx = 0; idx < racks_n && deficit > Bytes{0}; ++idx) {
      if (tally[idx].nodes != 0) continue;
      const Bytes use = min(state.pool_free[idx] - tally[idx].pool, deficit);
      if (use > Bytes{0}) {
        slice(idx).neighbor_pool_bytes += use;
        tally[idx].pool += use;
        deficit -= use;
      }
    }
    if (deficit > Bytes{0}) {
      DMSCHED_ASSERT(state.global_free >= deficit,
                     "compute_take: greedy_fits disagrees");
      plan.takes.front().global_pool_bytes += deficit;
    }
    for (auto& t : plan.takes) {
      t.gpus = static_cast<std::int64_t>(t.nodes) * g;
    }
  }

  return true;
}

std::optional<TakePlan> compute_take(const ResourceState& state,
                                     const ClusterConfig& config,
                                     const Job& job, PlacementPolicy policy) {
  TakePlan plan;
  if (!compute_take(state, config, job, policy, plan)) return std::nullopt;
  return plan;
}

bool can_apply(const ResourceState& state, const TakePlan& plan) {
  for (const auto& t : plan.takes) {
    const auto idx = static_cast<std::size_t>(t.rack);
    if (idx >= state.free_nodes.size()) return false;
    if (state.free_nodes[idx] < t.nodes) return false;
    if (state.pool_free[idx] < t.rack_pool_bytes + t.neighbor_pool_bytes) {
      return false;
    }
    if (t.gpus > 0 && state.free_gpus_in(idx) < t.gpus) return false;
  }
  if (plan.bb_bytes > Bytes{0} && state.bb_free < plan.bb_bytes) return false;
  return state.global_free >= plan.global_total();
}

void apply_take(ResourceState& state, const TakePlan& plan) {
  for (const auto& t : plan.takes) {
    const auto idx = static_cast<std::size_t>(t.rack);
    DMSCHED_ASSERT(idx < state.free_nodes.size(), "apply_take: bad rack");
    DMSCHED_ASSERT(state.free_nodes[idx] >= t.nodes,
                   "apply_take: node overcommit");
    const Bytes pool = t.rack_pool_bytes + t.neighbor_pool_bytes;
    DMSCHED_ASSERT(state.pool_free[idx] >= pool,
                   "apply_take: rack pool overcommit");
    state.free_nodes[idx] -= t.nodes;
    state.pool_free[idx] -= pool;
    state.free_nodes_total -= t.nodes;
    state.pool_free_total -= pool.count();
    if (t.gpus > 0) {
      DMSCHED_ASSERT(idx < state.free_gpus.size() &&
                         state.free_gpus[idx] >= t.gpus,
                     "apply_take: rack GPU overcommit");
      state.free_gpus[idx] -= t.gpus;
    }
  }
  const Bytes g = plan.global_total();
  DMSCHED_ASSERT(state.global_free >= g, "apply_take: global pool overcommit");
  state.global_free -= g;
  if (plan.bb_bytes > Bytes{0}) {
    DMSCHED_ASSERT(state.bb_free >= plan.bb_bytes,
                   "apply_take: burst buffer overcommit");
    state.bb_free -= plan.bb_bytes;
  }
}

void release_take(ResourceState& state, const TakePlan& plan) {
  for (const auto& t : plan.takes) {
    const auto idx = static_cast<std::size_t>(t.rack);
    DMSCHED_ASSERT(idx < state.free_nodes.size(), "release_take: bad rack");
    const Bytes pool = t.rack_pool_bytes + t.neighbor_pool_bytes;
    state.free_nodes[idx] += t.nodes;
    state.pool_free[idx] += pool;
    state.free_nodes_total += t.nodes;
    state.pool_free_total += pool.count();
    if (t.gpus > 0) {
      DMSCHED_ASSERT(idx < state.free_gpus.size(), "release_take: bad rack");
      state.free_gpus[idx] += t.gpus;
    }
  }
  state.global_free += plan.global_total();
  state.bb_free += plan.bb_bytes;
}

bool feasible_on_empty(const ClusterConfig& config, const Job& job,
                       PlacementPolicy policy) {
  return kernel_admits(empty_state(config), config, job, policy);
}

Allocation materialize(const Cluster& cluster, const Job& job,
                       const TakePlan& plan) {
  Allocation alloc;
  alloc.job = job.id;
  alloc.local_per_node = plan.local_per_node;
  alloc.far_per_node = plan.far_per_node;
  // Physical requirements come from the job, not the plan: even a plan made
  // by an axis-blind policy materializes into a full allocation, and the
  // cluster ledger (Cluster::commit) enforces every axis on it. Schedulers
  // that plan blind must revalidate before starting.
  alloc.gpus_per_node = job.gpus_per_node;
  alloc.bb_bytes = job.bb_bytes;
  Bytes global_bytes{};
  for (const auto& t : plan.takes) {
    auto ids = cluster.free_nodes_in_rack_lowest(t.rack, t.nodes);
    DMSCHED_ASSERT(std::cmp_equal(ids.size(), t.nodes),
                   "materialize: plan is stale for this cluster");
    alloc.nodes.insert(alloc.nodes.end(), ids.begin(), ids.end());
    if (t.rack_pool_bytes > Bytes{0}) {
      alloc.draws.push_back({t.rack, t.rack_pool_bytes});
    }
    if (t.neighbor_pool_bytes > Bytes{0}) {
      alloc.draws.push_back({t.rack, t.neighbor_pool_bytes, /*neighbor=*/true});
    }
    global_bytes += t.global_pool_bytes;
  }
  if (global_bytes > Bytes{0}) {
    alloc.draws.push_back({kGlobalPoolRack, global_bytes});
  }
  return alloc;
}

TakePlan take_from(const Allocation& alloc, const ClusterConfig& config) {
  TakePlan take;
  take.local_per_node = alloc.local_per_node;
  take.far_per_node = alloc.far_per_node;
  take.bb_bytes = alloc.bb_bytes;
  // Group nodes by rack, then attach this allocation's pool draws. A slot
  // keeps rack == kGlobalPoolRack until the allocation touches its rack.
  const auto racks_n = static_cast<std::size_t>(config.racks());
  RackScratch<RackTake> per_rack(racks_n, RackTake{kGlobalPoolRack});
  std::size_t used = 0;
  const auto slot = [&](RackId r) -> RackTake& {
    RackTake& t = per_rack[static_cast<std::size_t>(r)];
    if (t.rack == kGlobalPoolRack) {
      t.rack = r;
      ++used;
    }
    return t;
  };
  for (NodeId n : alloc.nodes) {
    RackTake& t = slot(config.rack_of(n));
    ++t.nodes;
    t.gpus += alloc.gpus_per_node;
  }
  Bytes global_bytes{};
  for (const auto& d : alloc.draws) {
    if (d.rack == kGlobalPoolRack) {
      global_bytes += d.bytes;
    } else if (d.neighbor) {
      // A neighbor draw's source rack hosts none of the job's nodes; it
      // gets its own node-less slice so profiles debit the right pool.
      RackTake& t = slot(d.rack);
      DMSCHED_ASSERT(t.nodes == 0,
                     "neighbor draw from a rack hosting the allocation's nodes");
      t.neighbor_pool_bytes += d.bytes;
    } else {
      RackTake& t = per_rack[static_cast<std::size_t>(d.rack)];
      DMSCHED_ASSERT(t.nodes > 0,
                     "allocation draws from a rack hosting none of its nodes");
      t.rack_pool_bytes += d.bytes;
    }
  }
  // Slices in ascending rack order. The global draw is accounted on the
  // first one: profiles only use the global *total*, which is preserved.
  take.takes.reserve(used);
  for (const RackTake& t : per_rack.slots()) {
    if (t.rack != kGlobalPoolRack) take.takes.push_back(t);
  }
  if (global_bytes > Bytes{0}) {
    DMSCHED_ASSERT(!take.takes.empty(), "allocation with draws but no nodes");
    take.takes.front().global_pool_bytes = global_bytes;
  }
  return take;
}

std::optional<Allocation> plan_start(const Cluster& cluster, const Job& job,
                                     PlacementPolicy policy) {
  const auto plan =
      compute_take(snapshot(cluster), cluster.config(), job, policy);
  if (!plan) return std::nullopt;
  return materialize(cluster, job, *plan);
}

}  // namespace dmsched
