#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/input_error.hpp"
#include "common/str.hpp"

namespace dmsched {

const char* to_string(MemSensitivity s) {
  switch (s) {
    case MemSensitivity::kComputeBound: return "compute-bound";
    case MemSensitivity::kBalanced: return "balanced";
    case MemSensitivity::kBandwidthBound: return "bandwidth-bound";
  }
  return "?";
}

void validate(const Job& j) {
  // Formats only on failure: a passing job allocates nothing.
  const auto reject = [](const char* field, std::int64_t value,
                         const char* unit, const std::string& rule) {
    throw InputError(field, strformat("%s = %lld%s, must be %s", field,
                                      static_cast<long long>(value), unit,
                                      rule.c_str()));
  };
  if (j.nodes <= 0) reject("nodes", j.nodes, "", "> 0");
  if (j.runtime <= SimTime{0}) {
    reject("runtime", j.runtime.usec(), " us", "> 0");
  }
  if (j.walltime < j.runtime) {
    reject("walltime", j.walltime.usec(), " us",
           strformat(">= runtime (%lld us)",
                     static_cast<long long>(j.runtime.usec())));
  }
  if (j.mem_per_node < Bytes{0}) {
    reject("mem_per_node", j.mem_per_node.count(), " B", ">= 0");
  }
  if (j.gpus_per_node < 0) reject("gpus_per_node", j.gpus_per_node, "", ">= 0");
  if (j.bb_bytes < Bytes{0}) {
    reject("bb_bytes", j.bb_bytes.count(), " B", ">= 0");
  }
}

Trace Trace::make(std::vector<Job> jobs, std::string name) {
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const Job& a, const Job& b) { return a.submit < b.submit; });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
    validate(jobs[i]);
  }
  Trace t;
  t.jobs_ = std::move(jobs);
  t.name_ = std::move(name);
  return t;
}

const Job& Trace::job(JobId id) const {
  DMSCHED_ASSERT(id < jobs_.size(), "Trace: job id out of range");
  return jobs_[id];
}

SimTime Trace::span() const {
  if (jobs_.size() < 2) return SimTime{0};
  return jobs_.back().submit - jobs_.front().submit;
}

Trace Trace::rebased() const {
  if (jobs_.empty()) return *this;
  const SimTime epoch = jobs_.front().submit;
  std::vector<Job> shifted = jobs_;
  for (auto& j : shifted) j.submit -= epoch;
  return make(std::move(shifted), name_);
}

Trace Trace::prefix(std::size_t n) const {
  std::vector<Job> head(jobs_.begin(),
                        jobs_.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(n, jobs_.size())));
  return make(std::move(head), name_);
}

double Trace::offered_load(std::int64_t total_nodes) const {
  OfferedLoad load;
  for (const auto& j : jobs_) load.add(j);
  return load.against(total_nodes);
}

double OfferedLoad::against(std::int64_t total_nodes) const {
  DMSCHED_ASSERT(total_nodes > 0, "offered_load: machine has no nodes");
  const double span_sec = jobs_ < 2 ? 0.0 : (last_ - first_).seconds();
  if (span_sec <= 0.0) return 0.0;
  return node_seconds_ / (static_cast<double>(total_nodes) * span_sec);
}

std::optional<ArrivalScale> OfferedLoad::scale_to(
    double target_load, std::int64_t total_nodes) const {
  if (!std::isfinite(target_load) || target_load <= 0.0) {
    throw InputError(
        "load",
        strformat("load %g: the offered-load target must be finite and > 0",
                  target_load));
  }
  const double current = against(total_nodes);
  if (current <= 0.0) return std::nullopt;
  // offered_load scales inversely with the submission span.
  const ArrivalScale scale{first_, current / target_load};
  // The scaled span must stay within half of kTimeInfinity, the profiles'
  // "never": past INT64_MAX the cast in SimTime::scaled is undefined, and a
  // submit near "never" leaves no room for the job's wait and walltime.
  constexpr double kMaxSpanUs = static_cast<double>(kTimeInfinity.usec() / 2);
  const double span_us = static_cast<double>((last_ - first_).usec());
  if (!(span_us * scale.factor <= kMaxSpanUs)) {
    throw InputError("load", strformat(
        "load %g: stretching arrival gaps by %g takes the %.0f s submission "
        "span past the simulation clock; this workload needs load >= %g",
        target_load, scale.factor, span_us / 1e6,
        current * span_us / kMaxSpanUs));
  }
  return scale;
}

}  // namespace dmsched
