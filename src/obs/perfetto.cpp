#include "obs/perfetto.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace dmsched::obs {
namespace {

constexpr std::size_t kFlushThreshold = 1 << 20;  // 1 MiB

void append_format(std::string& buf, const char* fmt, ...)
    [[gnu::format(printf, 2, 3)]];

void append_format(std::string& buf, const char* fmt, ...) {
  char local[512];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(local, sizeof local, fmt, args);
  va_end(args);
  if (n > 0)
    buf.append(local, std::min<std::size_t>(static_cast<std::size_t>(n),
                                            sizeof local - 1));
}

}  // namespace

std::string PerfettoTraceWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char u[8];
          std::snprintf(u, sizeof u, "\\u%04x", c);
          out += u;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

PerfettoTraceWriter::PerfettoTraceWriter(const std::string& path)
    : out_(path, std::ios::binary) {
  buf_.reserve(kFlushThreshold + 4096);
  if (!out_.good()) {
    failed_ = true;
    return;
  }
  raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
}

PerfettoTraceWriter::~PerfettoTraceWriter() { close(); }

void PerfettoTraceWriter::raw(std::string_view text) {
  buf_.append(text);
  flush_if_full();
}

void PerfettoTraceWriter::flush_if_full() {
  if (buf_.size() >= kFlushThreshold) {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
}

void PerfettoTraceWriter::event_prelude() {
  buf_ += events_ == 0 ? "\n" : ",\n";
  ++events_;
}

void PerfettoTraceWriter::metadata(int pid, int tid, const char* what,
                                   std::string_view name) {
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\","
                "\"args\":{\"name\":\"",
                pid, tid, what);
  buf_ += escape(name);
  buf_ += "\"}}";
  flush_if_full();
}

void PerfettoTraceWriter::on_run_begin(const RunInfo& info) {
  queue_tid_ = info.racks;
  metadata(kJobsPid, 0, "process_name",
           "sim: jobs — " + info.label + " on " + info.cluster_name);
  metadata(kJobsPid, queue_tid_, "thread_name", "queued");
  for (std::int32_t r = 0; r < info.racks; ++r)
    metadata(kJobsPid, r, "thread_name", "rack " + std::to_string(r));
  metadata(kSchedPid, 0, "process_name", "sim: scheduler");
  metadata(kSchedPid, 0, "thread_name", "passes");
}

void PerfettoTraceWriter::on_job_queued(const JobQueued& e) {
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"b\",\"cat\":\"queued\",\"id\":%" PRIu32
                ",\"pid\":%d,\"tid\":%" PRId32 ",\"ts\":%" PRId64
                ",\"name\":\"job %" PRIu32
                "\",\"args\":{\"nodes\":%" PRId32 ",\"mem_per_node_gib\":%g}}",
                e.job, kJobsPid, queue_tid_, e.submit.usec(), e.job, e.nodes,
                e.mem_per_node_gib);
  flush_if_full();
}

void PerfettoTraceWriter::on_job_rejected(const JobRejected& e) {
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%" PRId32
                ",\"ts\":%" PRId64 ",\"name\":\"rejected job %" PRIu32 "\"}",
                kJobsPid, queue_tid_, e.at.usec(), e.job);
  flush_if_full();
}

void PerfettoTraceWriter::on_job_started(const JobStarted& e) {
  // Close the queued span...
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"e\",\"cat\":\"queued\",\"id\":%" PRIu32
                ",\"pid\":%d,\"tid\":%" PRId32 ",\"ts\":%" PRId64
                ",\"name\":\"job %" PRIu32 "\"}",
                e.job, kJobsPid, queue_tid_, e.start.usec(), e.job);
  // ...and open the run span on the home rack's track.
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"b\",\"cat\":\"job\",\"id\":%" PRIu32
                ",\"pid\":%d,\"tid\":%" PRId32 ",\"ts\":%" PRId64
                ",\"name\":\"job %" PRIu32 "\",\"args\":{\"nodes\":%" PRId32
                ",\"dilation\":%g,\"far_rack_gib\":%g,\"far_neighbor_gib\":%g"
                ",\"far_global_gib\":%g}}",
                e.job, kJobsPid, e.rack, e.start.usec(), e.job, e.nodes,
                e.dilation, e.far_rack_gib, e.far_neighbor_gib,
                e.far_global_gib);
  flush_if_full();
}

void PerfettoTraceWriter::on_job_migrated(const JobMigrated& e) {
  // An instant on the rack track at the move's end of the transfer — the
  // run span itself stays open (the job keeps running, re-priced).
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%" PRId32
                ",\"ts\":%" PRId64 ",\"name\":\"%s job %" PRIu32
                "\",\"args\":{\"gib\":%g,\"dilation_before\":%g"
                ",\"dilation_after\":%g}}",
                kJobsPid, e.rack, e.at.usec(),
                e.demote ? "demote" : "promote", e.job, e.gib,
                e.dilation_before, e.dilation_after);
  flush_if_full();
}

void PerfettoTraceWriter::on_job_finished(const JobFinished& e) {
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"e\",\"cat\":\"job\",\"id\":%" PRIu32
                ",\"pid\":%d,\"tid\":%" PRId32 ",\"ts\":%" PRId64
                ",\"name\":\"job %" PRIu32 "\",\"args\":{\"killed\":%s}}",
                e.job, kJobsPid, e.rack, e.end.usec(), e.job,
                e.killed ? "true" : "false");
  flush_if_full();
}

void PerfettoTraceWriter::on_pass(const PassSpan& e) {
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"ts\":%" PRId64
                ",\"dur\":0,\"name\":\"",
                kSchedPid, e.at.usec());
  buf_ += escape(e.kind);
  append_format(buf_,
                "\",\"args\":{\"seq\":%" PRIu64 ",\"queue_depth\":%zu"
                ",\"running\":%zu,\"started\":%zu,\"examined\":%" PRId64
                ",\"plans\":%" PRId64 ",\"fast_path\":%s,\"wall_us\":%.3f}}",
                e.seq, e.queue_depth, e.running, e.started, e.examined,
                e.plans, e.fast_path ? "true" : "false",
                static_cast<double>(e.wall_ns) / 1000.0);
  flush_if_full();
}

void PerfettoTraceWriter::on_gauges(const GaugeSample& e) {
  const std::int64_t ts = e.at.usec();
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":%" PRId64
                ",\"name\":\"jobs\",\"args\":{\"queued\":%zu,\"running\":%zu}}",
                kSchedPid, ts, e.queue_depth, e.running);
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":%" PRId64
                ",\"name\":\"pool_gib\",\"args\":{\"rack\":%g,\"global\":%g}}",
                kSchedPid, ts, e.rack_pool_gib, e.global_pool_gib);
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":%" PRId64
                ",\"name\":\"event_queue\",\"args\":{\"events\":%zu"
                ",\"id_window\":%zu}}",
                kSchedPid, ts, e.event_queue_size, e.event_id_window);
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":%" PRId64
                ",\"name\":\"busy_nodes\",\"args\":{\"nodes\":%" PRId32 "}}",
                kSchedPid, ts, e.busy_nodes);
  flush_if_full();
}

void PerfettoTraceWriter::on_run_end(SimTime makespan) {
  event_prelude();
  append_format(buf_,
                "{\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,\"tid\":0,\"ts\":%" PRId64
                ",\"name\":\"run end\"}",
                kSchedPid, makespan.usec());
  flush_if_full();
}

void PerfettoTraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  if (failed_) return;
  buf_ += "\n]}\n";
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
  out_.flush();
  if (!out_.good()) failed_ = true;
  out_.close();
}

}  // namespace dmsched::obs
