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
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "workload/swf.hpp"
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

/// Incremental SWF reader: one line parsed per pull via `parse_swf_line`
/// (the same line-level parser `read_swf` uses), submit times rebased on
/// the fly so the first accepted job submits at t=0 — month-scale archives
/// stream at O(1) memory.
///
/// Accounting (`lines_total`/`jobs_accepted`/`jobs_skipped`/
/// `lines_malformed`) matches read_swf's SwfResult for the same input and
/// keeps the same non-fatal contract: malformed or filtered lines are
/// counted and skipped, never thrown. Counts are cumulative up to the lines
/// consumed so far (final after the source is exhausted). Divergence from
/// the eager reader: read_swf sorts, a stream cannot — an archive whose
/// completed jobs are not in submission order throws std::runtime_error.
/// An I/O error (badbit) ends the stream early and sets error().
class StreamingSwfSource final : public TraceSource {
 public:
  /// Owns the stream. `name` mirrors read_swf's trace_name.
  StreamingSwfSource(std::unique_ptr<std::istream> in, SwfOptions options,
                     std::string name);
  ~StreamingSwfSource() override;

  [[nodiscard]] const std::string& name() const override { return name_; }
  std::optional<Job> next() override;

  [[nodiscard]] std::size_t lines_total() const { return lines_total_; }
  [[nodiscard]] std::size_t jobs_accepted() const { return jobs_accepted_; }
  [[nodiscard]] std::size_t jobs_skipped() const { return jobs_skipped_; }
  [[nodiscard]] std::size_t lines_malformed() const {
    return lines_malformed_;
  }
  /// Non-empty after a hard I/O failure (mirrors SwfResult::error).
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool ok() const { return error_.empty(); }

 private:
  std::unique_ptr<std::istream> in_;
  SwfOptions options_;
  std::string name_;
  std::size_t lines_total_ = 0;
  std::size_t jobs_accepted_ = 0;
  std::size_t jobs_skipped_ = 0;
  std::size_t lines_malformed_ = 0;
  std::string error_;
  bool any_ = false;
  SimTime epoch_{};        ///< first accepted submit (rebasing offset)
  SimTime last_submit_{};  ///< last rebased submit (order check)
  bool done_ = false;
};

/// Open an SWF file as a streaming source. Throws std::runtime_error when
/// the file cannot be opened (the streaming analogue of
/// read_swf_file's error result).
[[nodiscard]] std::unique_ptr<StreamingSwfSource> open_swf_source(
    const std::string& path, const SwfOptions& options);

/// Materialize a source into a Trace (tests, small workloads). The result's
/// ids/order match what any consumer of the source would assign.
/// `name` overrides the source's name when non-empty.
[[nodiscard]] Trace drain_to_trace(TraceSource& source, std::string name = {});

}  // namespace dmsched
