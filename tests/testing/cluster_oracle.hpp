// Audit oracles over a Cluster's public ledger: per-node and per-rack
// figures recomputed from the allocations it holds, so tests check the
// incremental bookkeeping against first principles rather than against
// itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"

namespace dmsched::testing {

/// The job whose allocation holds `node`, or kInvalidJobId when it is free.
inline JobId occupant(const Cluster& c, NodeId node) {
  for (const JobId id : c.running_jobs()) {
    const std::vector<NodeId>& nodes = c.find_allocation(id)->nodes;
    if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) return id;
  }
  return kInvalidJobId;
}

/// Bytes of rack `r`'s pool serving *foreign* jobs (neighbor-marked draws:
/// jobs hosting no node in `r`). A subset of pool_used(r).
inline Bytes neighbor_bytes_in_rack(const Cluster& c, RackId r) {
  Bytes total{};
  for (const JobId id : c.running_jobs()) {
    for (const PoolDraw& d : c.find_allocation(id)->draws) {
      if (d.neighbor && d.rack == r) total += d.bytes;
    }
  }
  return total;
}

/// GPU devices the running jobs hold in rack `r`.
inline std::int64_t gpus_used_in_rack(const Cluster& c, RackId r) {
  std::int64_t total = 0;
  for (const JobId id : c.running_jobs()) {
    total += c.find_allocation(id)->gpus_in_rack(c.config(), r);
  }
  return total;
}

}  // namespace dmsched::testing
