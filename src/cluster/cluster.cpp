#include "cluster/cluster.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/assert.hpp"
#include "common/input_error.hpp"
#include "common/str.hpp"

namespace dmsched {

void ClusterConfig::validate() const {
  struct Bound {
    const char* field;
    std::int64_t value;
    std::int64_t min;
  };
  for (const Bound& b :
       {Bound{"total_nodes", total_nodes, 1},
        Bound{"nodes_per_rack", nodes_per_rack, 1},
        Bound{"local_mem_per_node", local_mem_per_node.count(), 1},
        Bound{"pool_per_rack", pool_per_rack.count(), 0},
        Bound{"global_pool", global_pool.count(), 0},
        Bound{"gpus_per_node", gpus_per_node, 0},
        Bound{"bb_capacity", bb_capacity.count(), 0}}) {
    if (b.value < b.min) {
      throw InputError(b.field, strformat(
          "%s = %lld, must be >= %lld", b.field,
          static_cast<long long>(b.value), static_cast<long long>(b.min)));
    }
  }
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  config_.validate();
  node_occupant_.assign(static_cast<std::size_t>(config_.total_nodes),
                        kInvalidJobId);
  rack_free_.resize(static_cast<std::size_t>(config_.racks()));
  for (RackId r = 0; r < config_.racks(); ++r) {
    rack_free_[static_cast<std::size_t>(r)] = config_.rack_size(r);
  }
  pool_used_.assign(static_cast<std::size_t>(config_.racks()), Bytes{0});
  neighbor_used_.assign(static_cast<std::size_t>(config_.racks()), Bytes{0});
  gpu_used_.assign(static_cast<std::size_t>(config_.racks()), 0);
  free_total_ = config_.total_nodes;
}

std::int32_t Cluster::free_nodes_in_rack(RackId r) const {
  DMSCHED_ASSERT(r >= 0 && r < config_.racks(), "rack id out of range");
  return rack_free_[static_cast<std::size_t>(r)];
}

Bytes Cluster::pool_free(RackId r) const {
  DMSCHED_ASSERT(r >= 0 && r < config_.racks(), "rack id out of range");
  return config_.pool_per_rack - pool_used_[static_cast<std::size_t>(r)];
}

Bytes Cluster::global_pool_free() const {
  return config_.global_pool - global_used_;
}

Bytes Cluster::rack_pools_used() const {
  Bytes total{};
  for (const Bytes& b : pool_used_) total += b;
  return total;
}

Bytes Cluster::pool_used(RackId r) const {
  DMSCHED_ASSERT(r >= 0 && r < config_.racks(), "rack id out of range");
  return pool_used_[static_cast<std::size_t>(r)];
}

std::int64_t Cluster::free_gpus_in_rack(RackId r) const {
  DMSCHED_ASSERT(r >= 0 && r < config_.racks(), "rack id out of range");
  return config_.rack_gpu_capacity(r) - gpu_used_[static_cast<std::size_t>(r)];
}

std::int64_t Cluster::gpus_used_total() const {
  std::int64_t total = 0;
  for (const std::int64_t g : gpu_used_) total += g;
  return total;
}

Bytes Cluster::neighbor_bytes_total() const {
  Bytes total{};
  for (const Bytes& b : neighbor_used_) total += b;
  return total;
}

Bytes Cluster::busiest_rack_pool_used() const {
  Bytes peak{};
  for (const Bytes& b : pool_used_) peak = max(peak, b);
  return peak;
}

std::vector<NodeId> Cluster::free_nodes_in_rack_lowest(
    RackId r, std::int32_t count) const {
  DMSCHED_ASSERT(r >= 0 && r < config_.racks(), "rack id out of range");
  std::vector<NodeId> out;
  if (count <= 0) return out;
  const NodeId first = r * config_.nodes_per_rack;
  const NodeId last = first + config_.rack_size(r);
  for (NodeId n = first; n < last && std::cmp_less(out.size(), count); ++n) {
    if (node_occupant_[static_cast<std::size_t>(n)] == kInvalidJobId) {
      out.push_back(n);
    }
  }
  return out;
}

void Cluster::commit(const Allocation& alloc) {
  DMSCHED_ASSERT(alloc.job != kInvalidJobId, "commit: invalid job id");
  DMSCHED_ASSERT(!allocations_.contains(alloc.job),
                 "commit: job already holds an allocation");
  DMSCHED_ASSERT(!alloc.nodes.empty(), "commit: allocation without nodes");
  DMSCHED_ASSERT(alloc.local_per_node <= config_.local_mem_per_node,
                 "commit: local share exceeds node capacity");
  DMSCHED_ASSERT(alloc.local_per_node >= Bytes{0} &&
                     alloc.far_per_node >= Bytes{0},
                 "commit: negative memory share");

  // Draws must sum exactly to the far requirement.
  Bytes draw_sum{};
  for (const auto& d : alloc.draws) {
    DMSCHED_ASSERT(d.bytes > Bytes{0}, "commit: empty pool draw");
    draw_sum += d.bytes;
  }
  DMSCHED_ASSERT(draw_sum == alloc.far_total(),
                 "commit: pool draws do not cover the far requirement");

  // Nodes must be distinct and free.
  for (NodeId n : alloc.nodes) {
    DMSCHED_ASSERT(n >= 0 && n < config_.total_nodes,
                   "commit: node id out of range");
    DMSCHED_ASSERT(node_occupant_[static_cast<std::size_t>(n)] ==
                       kInvalidJobId,
                   "commit: node already occupied");
  }

  // Rack draws must target racks hosting at least one of the job's nodes —
  // unless they are neighbor-marked, the validated distance-graded path:
  // then the rack must host *none* (the marking and hosting set must agree
  // exactly, so an unmarked foreign draw still aborts as before).
  for (const auto& d : alloc.draws) {
    if (d.rack == kGlobalPoolRack) {
      DMSCHED_ASSERT(!d.neighbor, "commit: global draw marked as neighbor");
      DMSCHED_ASSERT(d.bytes <= global_pool_free(),
                     "commit: global pool overcommitted");
      continue;
    }
    DMSCHED_ASSERT(d.bytes <= pool_free(d.rack),
                   "commit: rack pool overcommitted");
    const bool hosts_node =
        std::any_of(alloc.nodes.begin(), alloc.nodes.end(), [&](NodeId n) {
          return config_.rack_of(n) == d.rack;
        });
    if (d.neighbor) {
      DMSCHED_ASSERT(!hosts_node,
                     "commit: neighbor-marked draw from a hosting rack");
    } else {
      DMSCHED_ASSERT(hosts_node, "commit: draw from a rack hosting no node");
    }
  }

  // GPU demand lands on the hosting racks' device pools; burst-buffer
  // reservations on the cluster-global staging capacity.
  DMSCHED_ASSERT(alloc.gpus_per_node >= 0, "commit: negative GPU request");
  DMSCHED_ASSERT(alloc.bb_bytes >= Bytes{0},
                 "commit: negative burst-buffer reservation");
  if (alloc.gpus_per_node > 0) {
    std::vector<std::int64_t> demand(
        static_cast<std::size_t>(config_.racks()), 0);
    for (NodeId n : alloc.nodes) {
      demand[static_cast<std::size_t>(config_.rack_of(n))] +=
          alloc.gpus_per_node;
    }
    for (RackId r = 0; r < config_.racks(); ++r) {
      DMSCHED_ASSERT(demand[static_cast<std::size_t>(r)] <=
                         free_gpus_in_rack(r),
                     "commit: rack GPU pool overcommitted");
    }
  }
  DMSCHED_ASSERT(alloc.bb_bytes <= bb_free(),
                 "commit: burst buffer overcommitted");

  // All checks passed: apply.
  for (NodeId n : alloc.nodes) {
    node_occupant_[static_cast<std::size_t>(n)] = alloc.job;
    --rack_free_[static_cast<std::size_t>(config_.rack_of(n))];
    --free_total_;
  }
  for (const auto& d : alloc.draws) {
    if (d.rack == kGlobalPoolRack) {
      global_used_ += d.bytes;
    } else {
      pool_used_[static_cast<std::size_t>(d.rack)] += d.bytes;
      if (d.neighbor) {
        neighbor_used_[static_cast<std::size_t>(d.rack)] += d.bytes;
      }
    }
  }
  if (alloc.gpus_per_node > 0) {
    for (NodeId n : alloc.nodes) {
      gpu_used_[static_cast<std::size_t>(config_.rack_of(n))] +=
          alloc.gpus_per_node;
    }
  }
  bb_used_ += alloc.bb_bytes;
  allocations_.emplace(alloc.job, alloc);
}

Allocation Cluster::release(JobId job) {
  auto it = allocations_.find(job);
  DMSCHED_ASSERT(it != allocations_.end(), "release: job not running");
  Allocation alloc = std::move(it->second);
  allocations_.erase(it);
  for (NodeId n : alloc.nodes) {
    DMSCHED_ASSERT(node_occupant_[static_cast<std::size_t>(n)] == job,
                   "release: occupancy ledger corrupt");
    node_occupant_[static_cast<std::size_t>(n)] = kInvalidJobId;
    ++rack_free_[static_cast<std::size_t>(config_.rack_of(n))];
    ++free_total_;
  }
  for (const auto& d : alloc.draws) {
    if (d.rack == kGlobalPoolRack) {
      global_used_ -= d.bytes;
    } else {
      pool_used_[static_cast<std::size_t>(d.rack)] -= d.bytes;
      if (d.neighbor) {
        auto& held = neighbor_used_[static_cast<std::size_t>(d.rack)];
        held -= d.bytes;
        DMSCHED_ASSERT(held >= Bytes{0}, "release: neighbor ledger corrupt");
      }
    }
  }
  if (alloc.gpus_per_node > 0) {
    for (NodeId n : alloc.nodes) {
      auto& held = gpu_used_[static_cast<std::size_t>(config_.rack_of(n))];
      held -= alloc.gpus_per_node;
      DMSCHED_ASSERT(held >= 0, "release: GPU ledger corrupt");
    }
  }
  bb_used_ -= alloc.bb_bytes;
  return alloc;
}

void Cluster::retier(JobId job, std::vector<PoolDraw> new_draws) {
  auto it = allocations_.find(job);
  DMSCHED_ASSERT(it != allocations_.end(), "retier: job not running");
  Allocation& alloc = it->second;

  // Migration moves bytes between tiers; the far total is invariant.
  Bytes new_sum{};
  for (const auto& d : new_draws) {
    DMSCHED_ASSERT(d.bytes > Bytes{0}, "retier: empty pool draw");
    new_sum += d.bytes;
  }
  DMSCHED_ASSERT(new_sum == alloc.far_total(),
                 "retier: new draws do not cover the far requirement");

  // Validate against capacity *with the job's old draws returned* — a
  // migration that shuffles bytes within the same pool must not trip on
  // its own holdings.
  std::vector<Bytes> pool_after(pool_used_);
  Bytes global_after = global_used_;
  for (const auto& d : alloc.draws) {
    if (d.rack == kGlobalPoolRack) {
      global_after -= d.bytes;
    } else {
      pool_after[static_cast<std::size_t>(d.rack)] -= d.bytes;
    }
  }
  for (const auto& d : new_draws) {
    if (d.rack == kGlobalPoolRack) {
      DMSCHED_ASSERT(!d.neighbor, "retier: global draw marked as neighbor");
      global_after += d.bytes;
      continue;
    }
    DMSCHED_ASSERT(d.rack >= 0 && d.rack < config_.racks(),
                   "retier: rack id out of range");
    auto& used = pool_after[static_cast<std::size_t>(d.rack)];
    used += d.bytes;
    DMSCHED_ASSERT(used <= config_.pool_per_rack,
                   "retier: rack pool overcommitted");
    const bool hosts_node =
        std::any_of(alloc.nodes.begin(), alloc.nodes.end(), [&](NodeId n) {
          return config_.rack_of(n) == d.rack;
        });
    if (d.neighbor) {
      DMSCHED_ASSERT(!hosts_node,
                     "retier: neighbor-marked draw from a hosting rack");
    } else {
      DMSCHED_ASSERT(hosts_node, "retier: draw from a rack hosting no node");
    }
  }
  DMSCHED_ASSERT(global_after <= config_.global_pool,
                 "retier: global pool overcommitted");

  // Apply: retire the old draws from the ledgers, land the new ones.
  for (const auto& d : alloc.draws) {
    if (d.rack == kGlobalPoolRack) continue;
    if (d.neighbor) {
      auto& held = neighbor_used_[static_cast<std::size_t>(d.rack)];
      held -= d.bytes;
      DMSCHED_ASSERT(held >= Bytes{0}, "retier: neighbor ledger corrupt");
    }
  }
  pool_used_ = std::move(pool_after);
  global_used_ = global_after;
  for (const auto& d : new_draws) {
    if (d.rack != kGlobalPoolRack && d.neighbor) {
      neighbor_used_[static_cast<std::size_t>(d.rack)] += d.bytes;
    }
  }
  alloc.draws = std::move(new_draws);
}

const Allocation* Cluster::find_allocation(JobId job) const {
  auto it = allocations_.find(job);
  return it == allocations_.end() ? nullptr : &it->second;
}

std::vector<JobId> Cluster::running_jobs() const {
  std::vector<JobId> out;
  out.reserve(allocations_.size());
  for (const auto& [id, _] : allocations_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

void Cluster::audit() const {
  std::vector<std::int32_t> rack_free(rack_free_.size(), 0);
  std::int32_t free_total = 0;
  for (NodeId n = 0; n < config_.total_nodes; ++n) {
    const JobId occ = node_occupant_[static_cast<std::size_t>(n)];
    if (occ == kInvalidJobId) {
      ++rack_free[static_cast<std::size_t>(config_.rack_of(n))];
      ++free_total;
    } else {
      DMSCHED_ASSERT(allocations_.contains(occ),
                     "audit: node held by unknown job");
    }
  }
  DMSCHED_ASSERT(free_total == free_total_, "audit: free-node count drift");
  DMSCHED_ASSERT(rack_free == rack_free_, "audit: rack free-count drift");

  std::vector<Bytes> pool_used(pool_used_.size(), Bytes{0});
  std::vector<Bytes> neighbor_used(neighbor_used_.size(), Bytes{0});
  std::vector<std::int64_t> gpu_used(gpu_used_.size(), 0);
  Bytes global_used{};
  Bytes bb_used{};
  for (const auto& [job, alloc] : allocations_) {
    DMSCHED_ASSERT(job == alloc.job, "audit: allocation key mismatch");
    for (NodeId n : alloc.nodes) {
      DMSCHED_ASSERT(node_occupant_[static_cast<std::size_t>(n)] == job,
                     "audit: allocation lists a node it does not hold");
      gpu_used[static_cast<std::size_t>(config_.rack_of(n))] +=
          alloc.gpus_per_node;
    }
    for (const auto& d : alloc.draws) {
      if (d.rack == kGlobalPoolRack) {
        global_used += d.bytes;
      } else {
        pool_used[static_cast<std::size_t>(d.rack)] += d.bytes;
        const bool hosts_node = std::any_of(
            alloc.nodes.begin(), alloc.nodes.end(),
            [&](NodeId n) { return config_.rack_of(n) == d.rack; });
        DMSCHED_ASSERT(d.neighbor != hosts_node,
                       "audit: neighbor marking disagrees with hosting set");
        if (d.neighbor) {
          neighbor_used[static_cast<std::size_t>(d.rack)] += d.bytes;
        }
      }
    }
    bb_used += alloc.bb_bytes;
  }
  DMSCHED_ASSERT(global_used == global_used_, "audit: global pool drift");
  for (std::size_t r = 0; r < pool_used.size(); ++r) {
    DMSCHED_ASSERT(pool_used[r] == pool_used_[r], "audit: rack pool drift");
    DMSCHED_ASSERT(neighbor_used[r] == neighbor_used_[r],
                   "audit: neighbor ledger drift");
    DMSCHED_ASSERT(pool_used[r] <= config_.pool_per_rack,
                   "audit: rack pool overcommitted");
  }
  DMSCHED_ASSERT(global_used_ <= config_.global_pool,
                 "audit: global pool overcommitted");
  DMSCHED_ASSERT(gpu_used == gpu_used_, "audit: GPU ledger drift");
  for (RackId r = 0; r < config_.racks(); ++r) {
    DMSCHED_ASSERT(gpu_used_[static_cast<std::size_t>(r)] <=
                       config_.rack_gpu_capacity(r),
                   "audit: rack GPU pool overcommitted");
  }
  DMSCHED_ASSERT(bb_used == bb_used_, "audit: burst-buffer drift");
  DMSCHED_ASSERT(bb_used_ <= config_.bb_capacity,
                 "audit: burst buffer overcommitted");
}

}  // namespace dmsched
