// Pull-based trace ingestion: jobs delivered one at a time in submission
// order, so month-scale replays need not materialize O(trace) Jobs.
//
// The engine draws from a TraceSource lazily, keeping only its bounded
// look-ahead window of pending submissions live (EngineOptions::
// submit_lookahead); the differential harness in
// tests/workload/trace_source_test.cpp proves a bounded window is
// byte-identical to the full pre-push (look-ahead 0) at any window size.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "workload/trace.hpp"

namespace dmsched {

/// A pull-based stream of jobs.
///
/// Contract:
///  - `next()` yields jobs with *nondecreasing* submit times; after the
///    first empty optional the source is exhausted and stays empty.
///  - Ids carried by yielded jobs are advisory. Consumers assign sequential
///    ids in pull order — exactly what `Trace::make` does for an
///    already-sorted vector, which is why draining a source and building
///    the equivalent Trace agree job-for-job.
///  - Sources are single-use: one drain per instance.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Display name (mirrors Trace::name()).
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// The next job in submission order, or empty when exhausted.
  virtual std::optional<Job> next() = 0;

  /// Total job count when known up front (reservation hint only).
  [[nodiscard]] virtual std::optional<std::size_t> size_hint() const {
    return std::nullopt;
  }
};

/// The eager source: a view over an in-memory Trace, served by index. The
/// trace must outlive the source (traces are shared, not copied; each pull
/// copies one job).
class EagerTraceSource final : public TraceSource {
 public:
  explicit EagerTraceSource(const Trace& trace) : trace_(trace) {}

  [[nodiscard]] const std::string& name() const override {
    return trace_.name();
  }
  std::optional<Job> next() override {
    if (next_ >= trace_.size()) return std::nullopt;
    return trace_.jobs()[next_++];
  }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return trace_.size();
  }

 private:
  const Trace& trace_;
  std::size_t next_ = 0;
};

/// A source backed by a generator callback (synthetic workloads, tiled
/// replays). The generator owns all its state; this class only enforces the
/// submit-order contract — a generator yielding a decreasing submit time is
/// a logic error and throws.
class GeneratorTraceSource final : public TraceSource {
 public:
  GeneratorTraceSource(std::string name,
                       std::function<std::optional<Job>()> generate,
                       std::optional<std::size_t> size_hint = std::nullopt);

  [[nodiscard]] const std::string& name() const override { return name_; }
  std::optional<Job> next() override;
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return size_hint_;
  }

 private:
  std::string name_;
  std::function<std::optional<Job>()> generate_;
  std::optional<std::size_t> size_hint_;
  bool any_ = false;
  SimTime last_submit_{};
  bool done_ = false;
};

/// A decorator applying a per-job rewrite to an inner source — the
/// streaming counterpart of `transform::map_trace`. map_trace re-sorts
/// after mapping; a stream cannot, so the rewrite must preserve submission
/// order (any monotone-nondecreasing transform of submit does, which covers
/// shifting, scaling, and quantization). A rewrite that reorders throws
/// std::logic_error — loudly, instead of silently diverging from map_trace.
class MappedTraceSource final : public TraceSource {
 public:
  MappedTraceSource(std::unique_ptr<TraceSource> inner,
                    std::function<Job(Job)> fn);

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  std::optional<Job> next() override;
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return inner_->size_hint();
  }

 private:
  std::unique_ptr<TraceSource> inner_;
  std::function<Job(Job)> fn_;
  bool any_ = false;
  SimTime last_submit_{};
};

}  // namespace dmsched
