// Chrome/Perfetto trace-event JSON emitter.
//
// Writes the classic trace-event format ({"traceEvents":[...]}) that both
// chrome://tracing and https://ui.perfetto.dev load directly. Layout:
//
//   pid 1  "sim: jobs"       one thread track per rack (run spans) plus a
//                            "queued" track; job spans are *async* events
//                            ("b"/"e", id = job id) because many jobs
//                            overlap on one rack track — stack-nested
//                            "B"/"E" cannot represent that.
//   pid 2  "sim: scheduler"  one "X" event per pass (dur 0 — passes are
//                            instantaneous in simulated time) and "C"
//                            counter series for the gauges.
//
// Timestamps are microseconds: simulated time maps 1:1 (SimTime is already
// int64 µs since the trace epoch). The writer streams — nothing is
// buffered beyond one flush block — so tracing a large replay is O(1)
// memory. close() (or destruction) writes the JSON trailer; a trace is not
// loadable until then.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "obs/trace_sink.hpp"

namespace dmsched::obs {

class PerfettoTraceWriter final : public TraceSink {
 public:
  /// Opens `path`; check ok() before trusting the run.
  explicit PerfettoTraceWriter(const std::string& path);
  ~PerfettoTraceWriter() override;

  PerfettoTraceWriter(const PerfettoTraceWriter&) = delete;
  PerfettoTraceWriter& operator=(const PerfettoTraceWriter&) = delete;

  [[nodiscard]] bool ok() const { return !failed_ && out_.good(); }
  [[nodiscard]] std::size_t events_written() const { return events_; }

  /// Write the JSON trailer and flush. Idempotent; the destructor calls it.
  void close();

  void on_run_begin(const RunInfo& info) override;
  void on_job_queued(const JobQueued& e) override;
  void on_job_rejected(const JobRejected& e) override;
  void on_job_started(const JobStarted& e) override;
  void on_job_migrated(const JobMigrated& e) override;
  void on_job_finished(const JobFinished& e) override;
  void on_pass(const PassSpan& e) override;
  void on_gauges(const GaugeSample& e) override;
  void on_run_end(SimTime makespan) override;

  /// JSON-escape `s` (quotes, backslashes, control bytes -> \u00XX).
  /// Exposed for tests.
  [[nodiscard]] static std::string escape(std::string_view s);

 private:
  // Track ids. Queued spans live on a dedicated tid past the last rack.
  static constexpr int kJobsPid = 1;
  static constexpr int kSchedPid = 2;

  void raw(std::string_view text);
  void event_prelude();  // comma/newline separation between events
  void metadata(int pid, int tid, const char* what, std::string_view name);
  void flush_if_full();

  std::ofstream out_;
  std::string buf_;
  std::size_t events_ = 0;
  std::int32_t queue_tid_ = 0;  // racks (set at on_run_begin)
  bool closed_ = false;
  bool failed_ = false;
};

}  // namespace dmsched::obs
