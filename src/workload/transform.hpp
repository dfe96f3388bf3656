// Trace transformations: job-level rewriting.
//
// Experiments often need controlled variants of one workload ("the same
// jobs but with exact walltime estimates"). These helpers keep that logic
// out of the benches and make the variants deterministic and testable.
#pragma once

#include <functional>

#include "common/rng.hpp"
#include "workload/trace.hpp"

namespace dmsched {

/// Each job rewritten by `fn` (submit order re-established afterwards).
[[nodiscard]] Trace map_trace(const Trace& trace,
                              const std::function<Job(Job)>& fn);

/// The same jobs with perfectly accurate walltime requests (walltime =
/// runtime rounded up to `rounding`). Upper bound for what better user
/// estimates / runtime prediction could buy.
[[nodiscard]] Trace with_exact_walltimes(const Trace& trace,
                                         SimTime rounding = minutes(5));

/// The same jobs with walltime = runtime × U(lo, hi) (rounded up to
/// `rounding`), deterministically in `seed`. Models degraded estimates.
[[nodiscard]] Trace with_walltime_factor(const Trace& trace, double lo,
                                         double hi, std::uint64_t seed,
                                         SimTime rounding = minutes(15));

/// Mean walltime-request accuracy (runtime / walltime) of a trace.
[[nodiscard]] double mean_estimate_accuracy(const Trace& trace);

}  // namespace dmsched
