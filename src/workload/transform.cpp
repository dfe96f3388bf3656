#include "workload/transform.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace dmsched {
namespace {

SimTime round_up(SimTime t, SimTime rounding) {
  DMSCHED_ASSERT(rounding > SimTime{0}, "round_up: zero rounding");
  const std::int64_t q = rounding.usec();
  return SimTime{(t.usec() + q - 1) / q * q};
}

}  // namespace

Trace map_trace(const Trace& trace, const std::function<Job(Job)>& fn) {
  std::vector<Job> mapped;
  mapped.reserve(trace.size());
  for (const Job& j : trace.jobs()) mapped.push_back(fn(j));
  return Trace::make(std::move(mapped), trace.name());
}

Trace with_exact_walltimes(const Trace& trace, SimTime rounding) {
  return map_trace(trace, [&](Job j) {
    j.walltime = max(round_up(j.runtime, rounding), j.runtime);
    return j;
  });
}

Trace with_walltime_factor(const Trace& trace, double lo, double hi,
                           std::uint64_t seed, SimTime rounding) {
  DMSCHED_ASSERT(lo >= 1.0 && hi >= lo,
                 "with_walltime_factor: factors must be >= 1 (walltime is an "
                 "upper bound)");
  Rng rng(seed);
  return map_trace(trace, [&](Job j) {
    const double factor = rng.uniform(lo, hi);
    j.walltime = max(round_up(j.runtime.scaled(factor), rounding), j.runtime);
    return j;
  });
}

double mean_estimate_accuracy(const Trace& trace) {
  if (trace.empty()) return 1.0;
  double sum = 0.0;
  for (const Job& j : trace.jobs()) {
    sum += j.walltime > SimTime{0}
               ? j.runtime.seconds() / j.walltime.seconds()
               : 1.0;
  }
  return sum / static_cast<double>(trace.size());
}

}  // namespace dmsched
