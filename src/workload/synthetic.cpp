#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/assert.hpp"

namespace dmsched {
namespace {

/// Next arrival gap for an inhomogeneous Poisson process via thinning.
SimTime next_arrival_gap(Rng& rng, const SyntheticSpec& spec,
                         SimTime current) {
  const double base_per_sec = spec.arrival_rate_per_hour / 3600.0;
  DMSCHED_ASSERT(base_per_sec > 0.0, "arrival rate must be positive");
  const double peak = base_per_sec * (1.0 + spec.diurnal_amplitude);
  double t = current.seconds();
  for (;;) {
    t += rng.exponential(peak);
    const double phase = 2.0 * std::numbers::pi * t / 86'400.0;
    const double rate =
        base_per_sec * (1.0 + spec.diurnal_amplitude * std::sin(phase));
    if (rng.uniform() * peak <= rate) {
      return seconds(t) - current;
    }
  }
}

std::int32_t sample_nodes(Rng& rng, const SyntheticSpec& spec) {
  std::vector<double> weights;
  weights.reserve(spec.node_buckets.size());
  for (const auto& b : spec.node_buckets) weights.push_back(b.weight);
  const auto& bucket = spec.node_buckets[rng.weighted_index(weights)];
  DMSCHED_ASSERT(bucket.lo >= 1 && bucket.hi >= bucket.lo,
                 "node bucket misconfigured");
  // Log-uniform across the bucket: small widths are much more common.
  const double lo = std::log(static_cast<double>(bucket.lo));
  const double hi = std::log(static_cast<double>(bucket.hi) + 1.0);
  auto n = static_cast<std::int32_t>(std::exp(rng.uniform(lo, hi)));
  n = std::clamp(n, bucket.lo, bucket.hi);
  if (n > 1 && rng.bernoulli(spec.pow2_bias)) {
    // Snap to the nearest power of two inside the bucket.
    const double lg = std::round(std::log2(static_cast<double>(n)));
    auto snapped = static_cast<std::int32_t>(std::exp2(lg));
    n = std::clamp(snapped, bucket.lo, bucket.hi);
  }
  return n;
}

SimTime sample_runtime(Rng& rng, const SyntheticSpec& spec) {
  const double r = std::clamp(
      rng.lognormal(spec.runtime_log_mean, spec.runtime_log_sigma),
      spec.runtime_min_sec, spec.runtime_max_sec);
  return seconds(r);
}

SimTime sample_walltime(Rng& rng, const SyntheticSpec& spec,
                        SimTime runtime) {
  double req;
  if (rng.bernoulli(spec.walltime_exact_fraction)) {
    req = runtime.seconds();
  } else {
    req = runtime.seconds() *
          rng.uniform(1.0, spec.walltime_overestimate_max);
  }
  // Users request in round numbers.
  const double rounded =
      std::ceil(req / spec.walltime_rounding_sec) * spec.walltime_rounding_sec;
  return max(seconds(rounded), runtime);
}

Bytes sample_mem_per_node(Rng& rng, const SyntheticSpec& spec) {
  std::vector<double> weights;
  weights.reserve(spec.mem_bands.size());
  for (const auto& b : spec.mem_bands) weights.push_back(b.weight);
  const auto& band = spec.mem_bands[rng.weighted_index(weights)];
  const double frac = rng.uniform(band.lo_frac, band.hi_frac);
  return gib(frac * spec.reference_node_mem.gib());
}

MemSensitivity sample_sensitivity(Rng& rng, const SyntheticSpec& spec) {
  const auto idx = rng.weighted_index(spec.sensitivity_weights);
  return static_cast<MemSensitivity>(idx);
}

std::int32_t sample_user(Rng& rng, const SyntheticSpec& spec) {
  // Zipf-like via inverse-power transform of a uniform draw.
  const double u = rng.uniform();
  const double z = std::pow(u, 2.0);  // skew toward low ids
  return static_cast<std::int32_t>(z * spec.user_count);
}

/// The generator's per-job stepper: the one sampling sequence both the
/// eager builder and the streaming source replay. Arrivals accumulate a
/// clock, so submits are nondecreasing by construction — Trace::make's
/// stable sort is the identity and ids equal generation order.
class JobStream {
 public:
  JobStream(const SyntheticSpec& spec, std::uint64_t seed)
      : spec_(spec),
        master_(seed),
        arrivals_(master_.fork(1)),
        shapes_(master_.fork(2)),
        memory_(master_.fork(3)),
        timing_(master_.fork(4)) {}

  Job next() {
    clock_ += next_arrival_gap(arrivals_, spec_, clock_);
    Job j;
    j.submit = clock_;
    j.nodes = sample_nodes(shapes_, spec_);
    j.runtime = sample_runtime(timing_, spec_);
    j.walltime = sample_walltime(timing_, spec_, j.runtime);
    j.mem_per_node = sample_mem_per_node(memory_, spec_);
    j.sensitivity = sample_sensitivity(memory_, spec_);
    j.user = sample_user(shapes_, spec_);
    return j;
  }

 private:
  SyntheticSpec spec_;
  Rng master_;
  Rng arrivals_;
  Rng shapes_;
  Rng memory_;
  Rng timing_;
  SimTime clock_{};
};

}  // namespace

Trace generate_trace(const SyntheticSpec& spec, std::uint64_t seed) {
  DMSCHED_ASSERT(spec.job_count > 0, "generate_trace: zero jobs");
  JobStream stream(spec, seed);
  std::vector<Job> jobs;
  jobs.reserve(spec.job_count);
  for (std::size_t i = 0; i < spec.job_count; ++i) {
    jobs.push_back(stream.next());
  }
  return Trace::make(std::move(jobs), spec.name);
}

Trace generate_trace_with_load(const SyntheticSpec& spec, std::uint64_t seed,
                               std::int64_t machine_nodes,
                               double target_load) {
  const Trace raw = generate_trace(spec, seed);
  OfferedLoad load;
  for (const Job& j : raw.jobs()) load.add(j);
  const std::optional<ArrivalScale> scale =
      load.scale_to(target_load, machine_nodes);
  if (!scale) return raw;
  std::vector<Job> jobs = raw.jobs();
  for (Job& j : jobs) j.submit = (*scale)(j.submit);
  return Trace::make(std::move(jobs), spec.name);
}

std::unique_ptr<TraceSource> make_synthetic_source(const SyntheticSpec& spec,
                                                   std::uint64_t seed,
                                                   std::int64_t machine_nodes,
                                                   double target_load) {
  DMSCHED_ASSERT(spec.job_count > 0, "make_synthetic_source: zero jobs");

  // Pass 1: replay the generator to measure the offered load.
  JobStream probe(spec, seed);
  OfferedLoad load;
  for (std::size_t i = 0; i < spec.job_count; ++i) load.add(probe.next());
  const std::optional<ArrivalScale> scale =
      load.scale_to(target_load, machine_nodes);

  // Pass 2: the jobs themselves.
  auto stream = std::make_shared<JobStream>(spec, seed);
  auto generate = [stream, remaining = spec.job_count,
                   scale]() mutable -> std::optional<Job> {
    if (remaining == 0) return std::nullopt;
    --remaining;
    Job j = stream->next();
    if (scale) j.submit = (*scale)(j.submit);
    return j;
  };
  return std::make_unique<GeneratorTraceSource>(spec.name, std::move(generate),
                                                spec.job_count);
}

}  // namespace dmsched
