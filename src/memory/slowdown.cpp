#include "memory/slowdown.hpp"

#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "common/input_error.hpp"
#include "common/str.hpp"
#include "memory/placement.hpp"

namespace dmsched {

void SlowdownModel::validate() const {
  for (const auto& [field, beta] :
       {std::pair{"beta_rack", beta_rack},
        std::pair{"beta_neighbor", beta_neighbor},
        std::pair{"beta_global", beta_global}}) {
    if (!std::isfinite(beta) || beta < 0.0) {
      throw InputError(
          field, strformat("%s = %g, must be finite and >= 0", field, beta));
    }
  }
  if (!std::isfinite(gamma) || gamma <= 0.0) {
    throw InputError("gamma",
                     strformat("gamma = %g, must be finite and > 0", gamma));
  }
  // A negative multiplier would shrink a dilation below 1.
  for (const auto& [field, sens] :
       {std::pair{"sens_compute", sens_compute},
        std::pair{"sens_balanced", sens_balanced},
        std::pair{"sens_bandwidth", sens_bandwidth}}) {
    if (!std::isfinite(sens) || sens < 0.0) {
      throw InputError(
          field, strformat("%s = %g, must be finite and >= 0", field, sens));
    }
  }
}

double SlowdownModel::sensitivity_multiplier(MemSensitivity s) const {
  switch (s) {
    case MemSensitivity::kComputeBound: return sens_compute;
    case MemSensitivity::kBalanced: return sens_balanced;
    case MemSensitivity::kBandwidthBound: return sens_bandwidth;
  }
  DMSCHED_UNREACHABLE("bad sensitivity class");
}

double SlowdownModel::tier_coefficient(MemoryTier t) const {
  switch (t) {
    case MemoryTier::kLocal: return 0.0;
    case MemoryTier::kRackPool: return beta_rack;
    case MemoryTier::kNeighborPool: return beta_neighbor;
    case MemoryTier::kGlobalPool: return beta_global;
  }
  DMSCHED_UNREACHABLE("bad memory tier");
}

SlowdownModel SlowdownModel::with_remote_penalty(double k) const {
  DMSCHED_ASSERT(k > 0.0, "remote penalty must be > 0");
  if (k == 1.0) return *this;
  SlowdownModel m = *this;
  m.beta_rack = beta_rack * k;
  m.beta_neighbor = beta_neighbor * k;
  m.beta_global = beta_global * k;
  return m;
}

double SlowdownModel::dilation(double phi_rack, double phi_neighbor,
                               double phi_global, MemSensitivity s) const {
  DMSCHED_ASSERT(phi_rack >= 0.0 && phi_neighbor >= 0.0 &&
                     phi_global >= 0.0 &&
                     phi_rack + phi_neighbor + phi_global <= 1.0 + 1e-9,
                 "dilation: far fractions outside [0,1]");
  const double mult = sensitivity_multiplier(s);
  // Distance-tier composition: each remote tier contributes its coefficient
  // times its footprint fraction (raised to γ for the saturating kind).
  const double c_rack = tier_coefficient(MemoryTier::kRackPool);
  const double c_neighbor = tier_coefficient(MemoryTier::kNeighborPool);
  const double c_global = tier_coefficient(MemoryTier::kGlobalPool);
  double penalty = 0.0;
  switch (kind) {
    case Kind::kLinear:
      penalty = c_rack * phi_rack + c_neighbor * phi_neighbor +
                c_global * phi_global;
      break;
    case Kind::kSaturating:
      penalty = c_rack * std::pow(phi_rack, gamma) +
                c_neighbor * std::pow(phi_neighbor, gamma) +
                c_global * std::pow(phi_global, gamma);
      break;
  }
  return 1.0 + mult * penalty;
}

double SlowdownModel::dilation_for(const Allocation& alloc,
                                   const Job& job) const {
  const Bytes total = alloc.mem_total();
  if (total.is_zero()) return 1.0;
  const double phi_rack = ratio(alloc.rack_draw_total(), total);
  const double phi_neighbor = ratio(alloc.neighbor_draw_total(), total);
  const double phi_global = ratio(alloc.global_draw_total(), total);
  return dilation(phi_rack, phi_neighbor, phi_global, job.sensitivity);
}

double SlowdownModel::dilation_for(const TakePlan& plan,
                                   const Job& job) const {
  return dilation_bytes(plan.rack_pool_total(), plan.neighbor_pool_total(),
                        plan.global_total(), job.total_mem(), job.sensitivity);
}

double SlowdownModel::dilation_bytes(Bytes rack_bytes, Bytes neighbor_bytes,
                                     Bytes global_bytes, Bytes total,
                                     MemSensitivity s) const {
  if (total.is_zero()) return 1.0;
  return dilation(ratio(rack_bytes, total), ratio(neighbor_bytes, total),
                  ratio(global_bytes, total), s);
}

}  // namespace dmsched
