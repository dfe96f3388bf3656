// Far-memory performance model.
//
// Hardware substitution (DESIGN.md): instead of simulating a CXL fabric we
// model its effect — a job whose footprint is partly served from a pool runs
// longer by an analytic dilation factor. Rack pools (one switch hop) carry a
// lower coefficient than the global pool (multi-hop). Application classes
// scale the penalty: streaming codes feel far memory, compute-bound codes
// barely notice.
#pragma once

#include "cluster/allocation.hpp"
#include "topology/topology.hpp"
#include "workload/job.hpp"

namespace dmsched {

struct TakePlan;

/// Runtime dilation as a function of the far-memory fraction.
///
/// The penalty composes over distance tiers (topology/): each tier carries
/// a coefficient monotone in its hop count — local 0, rack pool one switch
/// hop, global pool multi-hop — and a job's dilation sums the per-tier
/// contributions of its footprint split.
struct SlowdownModel {
  enum class Kind {
    kLinear,      ///< 1 + β·φ — first-order model, default
    kSaturating,  ///< 1 + β·φ^γ, γ<1 — penalty front-loaded, then flattens
  };
  Kind kind = Kind::kLinear;
  /// Coefficient for bytes served from the job's rack pools.
  double beta_rack = 0.30;
  /// Coefficient for bytes served from a *neighbor* rack's pool (one
  /// inter-rack hop beyond the own-rack switch, but short of the global
  /// fabric). Priced midway between the rack and global coefficients; only
  /// the shared-neighbors routing ever produces such draws, so this knob is
  /// unobservable on every published machine.
  double beta_neighbor = 0.375;
  /// Coefficient for bytes served from the global pool (extra hops).
  double beta_global = 0.45;
  /// Exponent for the saturating kind (ignored for linear).
  double gamma = 0.7;
  /// Sensitivity multipliers per application class.
  double sens_compute = 0.4;
  double sens_balanced = 1.0;
  double sens_bandwidth = 1.6;

  /// Throws InputError naming the first bad field: every β and
  /// every class multiplier must be finite and >= 0, γ finite and > 0. A
  /// bad value would otherwise surface much later as a NaN or negative
  /// completion time.
  void validate() const;

  /// Class multiplier.
  [[nodiscard]] double sensitivity_multiplier(MemSensitivity s) const;

  /// Distance-tier coefficient: 0 for local, β_rack for the rack tier,
  /// β_neighbor for foreign-rack draws, β_global for the global tier.
  [[nodiscard]] double tier_coefficient(MemoryTier t) const;

  /// The same model with every remote-tier coefficient scaled by `k` —
  /// ScenarioParams::remote_penalty resolves through this. `k` must be > 0;
  /// 1.0 returns the model unchanged (bit-for-bit).
  [[nodiscard]] SlowdownModel with_remote_penalty(double k) const;

  /// Dilation factor (>= 1) for far fractions φ_rack, φ_neighbor and
  /// φ_global of the job's total footprint. φ's must be in [0,1] and sum
  /// to <= 1.
  [[nodiscard]] double dilation(double phi_rack, double phi_neighbor,
                                double phi_global, MemSensitivity s) const;

  /// Dilation factor for a concrete allocation of `job`.
  [[nodiscard]] double dilation_for(const Allocation& alloc,
                                    const Job& job) const;
  /// Dilation factor for `job` drawing its far memory as `plan` does (a
  /// counted plan, before node ids are assigned): the walltime bound every
  /// scheduler plans with.
  [[nodiscard]] double dilation_for(const TakePlan& plan,
                                    const Job& job) const;

  /// Dilation factor from byte totals (counted plans, before node ids are
  /// assigned): `rack_bytes`/`neighbor_bytes`/`global_bytes` far bytes out
  /// of `total`.
  [[nodiscard]] double dilation_bytes(Bytes rack_bytes, Bytes neighbor_bytes,
                                      Bytes global_bytes, Bytes total,
                                      MemSensitivity s) const;
};

}  // namespace dmsched
