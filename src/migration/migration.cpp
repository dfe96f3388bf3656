#include "migration/migration.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "common/assert.hpp"
#include "common/input_error.hpp"
#include "common/str.hpp"

namespace dmsched {

void MigrationPolicy::validate() const {
  // Negated range tests, so NaN fails every one of them.
  if (!(demote_threshold > 0.0 && demote_threshold <= 1.0)) {
    throw InputError("demote_threshold",
                     strformat("demote_threshold = %g, must lie in (0, 1]",
                               demote_threshold));
  }
  if (!(promote_headroom >= 0.0 && promote_headroom < demote_threshold)) {
    throw InputError(
        "promote_headroom",
        strformat("promote_headroom = %g, must lie in [0, demote_threshold "
                  "= %g)",
                  promote_headroom, demote_threshold));
  }
  if (!std::isfinite(bandwidth_gibps) || bandwidth_gibps < 0.0) {
    throw InputError("bandwidth_gibps",
                     strformat("bandwidth_gibps = %g, must be finite and >= 0",
                               bandwidth_gibps));
  }
}

SimTime MigrationPolicy::latency_for(Bytes bytes) const {
  if (bandwidth_gibps <= 0.0) return SimTime{};
  return seconds(bytes.gib() / bandwidth_gibps);
}

std::vector<MigrationDecision> MigrationEngine::plan(
    const Cluster& cluster, const std::vector<JobId>& running) const {
  std::vector<MigrationDecision> out;
  if (!policy_.enabled()) return out;
  const ClusterConfig& config = cluster.config();
  // No rack tier: every far byte is already global, nothing to grade.
  if (config.pool_per_rack.is_zero() || config.global_pool.is_zero()) {
    return out;
  }

  // Working copies so successive decisions within one scan see each other's
  // effect — otherwise every job on one contended pool demotes at once and
  // overshoots the target band.
  const auto racks = static_cast<std::size_t>(config.racks());
  std::vector<Bytes> pool_used(racks);
  for (RackId r = 0; r < config.racks(); ++r) {
    pool_used[static_cast<std::size_t>(r)] = cluster.pool_used(r);
  }
  Bytes global_free = cluster.global_pool_free();
  const double cap = static_cast<double>(config.pool_per_rack.count());
  const auto used_frac = [&](RackId r) {
    return static_cast<double>(
               pool_used[static_cast<std::size_t>(r)].count()) /
           cap;
  };

  std::unordered_set<JobId> decided;

  // Demotions first: relieve contended pools before pulling anything back.
  for (const JobId id : running) {
    if (in_flight(id)) continue;
    const Allocation* alloc = cluster.find_allocation(id);
    if (alloc == nullptr) continue;
    for (const auto& d : alloc->draws) {
      if (d.rack == kGlobalPoolRack) continue;
      if (used_frac(d.rack) <= policy_.demote_threshold) continue;
      if (global_free < d.bytes) continue;
      out.push_back({id, MigrationKind::kDemote, d.rack, d.neighbor, d.bytes});
      pool_used[static_cast<std::size_t>(d.rack)] -= d.bytes;
      global_free -= d.bytes;
      decided.insert(id);
      break;  // at most one move per job per scan
    }
  }

  // Promotions: pull a job's global bytes back into a hosting rack whose
  // pool sits below the hysteresis band, clamped so the landing never
  // lifts that pool back above the band (no demote/promote flapping). The
  // constructor's validate() keeps the band positive.
  const double band = policy_.demote_threshold - policy_.promote_headroom;
  for (const JobId id : running) {
    if (in_flight(id) || decided.contains(id)) continue;
    const Allocation* alloc = cluster.find_allocation(id);
    if (alloc == nullptr) continue;
    const Bytes global_bytes = alloc->global_draw_total();
    if (global_bytes.is_zero()) continue;
    // Hosting racks in ascending order (nodes are grouped by materialize,
    // but dedupe defensively).
    RackId prev = kGlobalPoolRack;
    for (const NodeId n : alloc->nodes) {
      const RackId r = config.rack_of(n);
      if (r == prev) continue;
      prev = r;
      if (used_frac(r) >= band) continue;
      const auto ceiling =
          Bytes{static_cast<std::int64_t>(cap * band)};
      const Bytes room =
          ceiling - min(ceiling, pool_used[static_cast<std::size_t>(r)]);
      const Bytes move = min(global_bytes, room);
      if (move.is_zero()) continue;
      out.push_back({id, MigrationKind::kPromote, r, false, move});
      pool_used[static_cast<std::size_t>(r)] += move;
      global_free += move;
      break;
    }
  }
  return out;
}

std::vector<PoolDraw> rewrite_draws(const Allocation& alloc,
                                    const MigrationDecision& decision) {
  // Coalesce the current draws by (rack, neighbor-flag).
  std::map<std::pair<RackId, bool>, Bytes> rack_draws;
  Bytes global{};
  for (const auto& d : alloc.draws) {
    if (d.rack == kGlobalPoolRack) {
      global += d.bytes;
    } else {
      rack_draws[{d.rack, d.neighbor}] += d.bytes;
    }
  }
  switch (decision.kind) {
    case MigrationKind::kDemote: {
      auto it = rack_draws.find({decision.rack, decision.neighbor});
      DMSCHED_ASSERT(it != rack_draws.end() && it->second >= decision.bytes,
                     "rewrite_draws: demotion exceeds the source draw");
      it->second -= decision.bytes;
      if (it->second.is_zero()) rack_draws.erase(it);
      global += decision.bytes;
      break;
    }
    case MigrationKind::kPromote: {
      DMSCHED_ASSERT(global >= decision.bytes,
                     "rewrite_draws: promotion exceeds the global draw");
      global -= decision.bytes;
      rack_draws[{decision.rack, decision.neighbor}] += decision.bytes;
      break;
    }
  }
  // Canonical order: own-rack draws by rack, neighbor draws by rack, the
  // global draw last — deterministic regardless of the input draw order.
  std::vector<PoolDraw> out;
  out.reserve(rack_draws.size() + 1);
  for (const bool neighbor_pass : {false, true}) {
    for (const auto& [key, bytes] : rack_draws) {
      if (key.second == neighbor_pass && !bytes.is_zero()) {
        out.push_back({key.first, bytes, key.second});
      }
    }
  }
  if (!global.is_zero()) out.push_back({kGlobalPoolRack, global});
  return out;
}

}  // namespace dmsched
