// A workload trace: jobs ordered by submission time, plus transformations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/job.hpp"

namespace dmsched {

/// An ordered collection of jobs (nondecreasing submit times, ids equal to
/// their index). Construct via `make` so both invariants are enforced.
class Trace {
 public:
  Trace() = default;

  /// Sorts by submit time (stable), reassigns ids to match indices and
  /// validates every job (throwing InputError).
  static Trace make(std::vector<Job> jobs, std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] bool empty() const { return jobs_.empty(); }
  [[nodiscard]] const Job& job(JobId id) const;
  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }

  /// Submission span: last submit − first submit (0 for <2 jobs).
  [[nodiscard]] SimTime span() const;

  /// A copy with submit times shifted so the first job submits at t=0.
  [[nodiscard]] Trace rebased() const;

  /// A copy containing only the first `n` jobs (by submission order).
  [[nodiscard]] Trace prefix(std::size_t n) const;

  /// Offered load against a machine of `total_nodes`:
  /// Σ(nodes·runtime) / (total_nodes · span). >1 means oversubscribed.
  [[nodiscard]] double offered_load(std::int64_t total_nodes) const;

 private:
  std::vector<Job> jobs_;
  std::string name_;
};

/// Submit times stretched about an epoch: s -> (s - epoch) * factor, so the
/// first job lands at 0. A gap factor < 1 compresses arrivals, i.e. raises
/// the offered load; runtimes are untouched.
struct ArrivalScale {
  SimTime epoch{};
  double factor = 1.0;

  [[nodiscard]] SimTime operator()(SimTime submit) const {
    return (submit - epoch).scaled(factor);
  }
};

/// The offered load of a job sequence, folded one job at a time in
/// submission order: Σ used node-seconds / (total_nodes · span). Traces,
/// generators and tiled replays all measure and rescale their arrivals
/// through this one fold, so eager and streamed builds agree bit-for-bit.
class OfferedLoad {
 public:
  // Inline: tiled replays fold a million jobs in their set-up prepass.
  void add(const Job& j) {
    if (jobs_++ == 0) first_ = j.submit;
    last_ = j.submit;
    node_seconds_ += j.used_node_seconds();
  }

  /// The load against `total_nodes` nodes; 0 for fewer than two jobs or a
  /// zero span.
  [[nodiscard]] double against(std::int64_t total_nodes) const;

  /// The arrival scale that lands the sequence at `target_load` against
  /// `total_nodes`, or nullopt when it has no measurable load (submits then
  /// pass through unchanged). Throws InputError naming `load` for
  /// a non-finite or non-positive target, and for a target so small that
  /// the scaled span leaves the simulation clock's range.
  [[nodiscard]] std::optional<ArrivalScale> scale_to(
      double target_load, std::int64_t total_nodes) const;

 private:
  std::size_t jobs_ = 0;
  SimTime first_{};
  SimTime last_{};
  double node_seconds_ = 0.0;
};

}  // namespace dmsched
