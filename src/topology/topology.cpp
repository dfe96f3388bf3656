#include "topology/topology.hpp"

#include <numeric>
#include <utility>

#include "common/assert.hpp"
#include "common/input_error.hpp"
#include "common/str.hpp"

namespace dmsched {

namespace {

std::int64_t sum_nodes(const std::vector<std::int32_t>& free_nodes) {
  return std::accumulate(free_nodes.begin(), free_nodes.end(),
                         std::int64_t{0});
}

__int128 sum_pools(const std::vector<Bytes>& pool_free) {
  __int128 total = 0;
  for (const Bytes pool : pool_free) total += pool.count();
  return total;
}

}  // namespace

void ResourceState::recount() {
  free_nodes_total = sum_nodes(free_nodes);
  pool_free_total = sum_pools(pool_free);
}

bool ResourceState::totals_match() const {
  return free_nodes_total == sum_nodes(free_nodes) &&
         pool_free_total == sum_pools(pool_free);
}

ResourceState snapshot(const Cluster& cluster) {
  const auto racks = cluster.config().racks();
  ResourceState s;
  s.free_nodes.reserve(static_cast<std::size_t>(racks));
  s.pool_free.reserve(static_cast<std::size_t>(racks));
  for (RackId r = 0; r < racks; ++r) {
    s.free_nodes.push_back(cluster.free_nodes_in_rack(r));
    s.pool_free.push_back(cluster.pool_free(r));
  }
  if (cluster.config().has_gpus()) {
    s.free_gpus.reserve(static_cast<std::size_t>(racks));
    for (RackId r = 0; r < racks; ++r) {
      s.free_gpus.push_back(cluster.free_gpus_in_rack(r));
    }
  }
  s.global_free = cluster.global_pool_free();
  s.bb_free = cluster.bb_free();
  s.recount();
  return s;
}

ResourceState empty_state(const ClusterConfig& config) {
  ResourceState s;
  const auto racks = config.racks();
  for (RackId r = 0; r < racks; ++r) {
    s.free_nodes.push_back(config.rack_size(r));
    s.pool_free.push_back(config.pool_per_rack);
  }
  if (config.has_gpus()) {
    for (RackId r = 0; r < racks; ++r) {
      s.free_gpus.push_back(config.rack_gpu_capacity(r));
    }
  }
  s.global_free = config.global_pool;
  s.bb_free = config.bb_capacity;
  s.recount();
  return s;
}

Topology::Topology(ClusterConfig config) : config_(std::move(config)) {}

TierHeadroom Topology::headroom(const ResourceState& state) const {
  DMSCHED_ASSERT(state.free_nodes.size() == static_cast<std::size_t>(racks()),
                 "headroom: state shape mismatch");
  TierHeadroom h;
  h.free_nodes = state.total_free_nodes();
  h.rack_pool_free = Bytes{static_cast<std::int64_t>(state.pool_free_total)};
  for (const Bytes free : state.pool_free) {
    h.rack_pool_free_max = max(h.rack_pool_free_max, free);
  }
  h.global_free = state.global_free;
  for (const std::int64_t g : state.free_gpus) h.free_gpus += g;
  h.bb_free = state.bb_free;
  return h;
}

ClusterConfig apply(const TopologySpec& spec, ClusterConfig config) {
  if (spec.racks < 0) {
    throw InputError("racks", strformat("racks = %d, must be >= 0 (0 keeps "
                                        "the published racking)",
                                        spec.racks));
  }
  if (spec.racks > 0) {
    if (spec.racks > config.total_nodes ||
        config.total_nodes % spec.racks != 0) {
      throw InputError("racks",
                       strformat("racks = %d must divide the node count (%d) "
                                 "exactly; pick a divisor",
                                 spec.racks, config.total_nodes));
    }
    // Preserve the rack tier's total bytes across re-racking.
    const Bytes rack_tier = config.pool_per_rack * config.racks();
    config.nodes_per_rack = config.total_nodes / spec.racks;
    config.pool_per_rack = rack_tier / spec.racks;
    if (!rack_tier.is_zero() && config.pool_per_rack.is_zero()) {
      throw InputError(
          "racks",
          strformat("racks = %d leaves a zero-capacity rack tier (%lld bytes "
                    "split too thin); reduce racks or raise pool capacity",
                    spec.racks, static_cast<long long>(rack_tier.count())));
    }
  }
  // Negated so a NaN fraction is rejected rather than read as "keep".
  if (!(spec.rack_pool_frac < 0.0)) {
    if (!(spec.rack_pool_frac <= 1.0)) {
      throw InputError("rack_pool_frac",
                       strformat("rack_pool_frac = %g, must lie in [0, 1] "
                                 "(negative keeps the published split)",
                                 spec.rack_pool_frac));
    }
    const std::int32_t racks = config.racks();
    const Bytes total = config.pool_per_rack * racks + config.global_pool;
    if (total.is_zero()) {
      throw InputError("rack_pool_frac",
                       "rack_pool_frac set but the machine has no "
                       "disaggregated capacity to split");
    }
    const Bytes per_rack = Bytes{static_cast<std::int64_t>(
        static_cast<double>(total.count()) * spec.rack_pool_frac /
        static_cast<double>(racks))};
    if (spec.rack_pool_frac > 0.0 && per_rack.is_zero()) {
      throw InputError(
          "rack_pool_frac",
          strformat("rack_pool_frac = %g produces a zero-capacity rack tier "
                    "on this machine (%lld bytes across %d racks); raise the "
                    "fraction or use 0",
                    spec.rack_pool_frac,
                    static_cast<long long>(total.count()), racks));
    }
    config.pool_per_rack = per_rack;
    // frac == 1.0 means *strictly* rack-scale: the integer-division residue
    // (< racks bytes) is dropped rather than left as a degenerate global
    // tier that would flip has_global_tier() on a machine documented as
    // having none.
    config.global_pool =
        spec.rack_pool_frac == 1.0 ? Bytes{0} : total - per_rack * racks;
  }
  return config;
}

ClusterConfig flatten_to_global(ClusterConfig config) {
  config.global_pool += config.pool_per_rack * config.racks();
  config.pool_per_rack = Bytes{0};
  config.nodes_per_rack = config.total_nodes;
  return config;
}

void ensure_tiers_survive(const ClusterConfig& shaped,
                          const ClusterConfig& published, const char* field) {
  if (!published.pool_per_rack.is_zero() && shaped.pool_per_rack.is_zero()) {
    throw InputError(
        field, strformat("%s: the published machine has rack pools but this "
                         "combination produces a zero-capacity rack tier; "
                         "raise pool_scale or rack_pool_frac",
                         field));
  }
  if (!published.global_pool.is_zero() && shaped.global_pool.is_zero()) {
    throw InputError(
        field, strformat("%s: the published machine has a global tier but "
                         "this combination produces a zero-capacity global "
                         "tier; raise pool_scale",
                         field));
  }
}

}  // namespace dmsched
