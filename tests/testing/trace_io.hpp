// Test oracles for job input: draining a TraceSource into a Trace, and
// writing a Trace as SWF for read_swf round trips.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/str.hpp"
#include "workload/swf.hpp"
#include "workload/trace.hpp"
#include "workload/trace_source.hpp"

namespace dmsched::testing {

/// Materialize a source into a Trace. The result's ids/order match what any
/// consumer of the source would assign. `name` overrides the source's name
/// when non-empty.
inline Trace drain_to_trace(TraceSource& source, std::string name = {}) {
  std::vector<Job> jobs;
  if (auto hint = source.size_hint()) jobs.reserve(*hint);
  while (std::optional<Job> j = source.next()) jobs.push_back(*j);
  // The source contract guarantees submission order, so the stable sort in
  // Trace::make is the identity and ids land in pull order.
  return Trace::make(std::move(jobs),
                     name.empty() ? source.name() : std::move(name));
}

/// Serialize a trace to SWF (fields DMSched does not model are -1).
/// Memory is written as KB per processor, inverse of the reader mapping.
inline void write_swf(std::ostream& out, const Trace& trace,
                      const SwfOptions& options) {
  out << "; SWF export from DMSched\n";
  out << "; MaxProcs unknown; memory written as KB per processor\n";
  for (const Job& j : trace.jobs()) {
    const std::int64_t procs =
        static_cast<std::int64_t>(j.nodes) * options.procs_per_node;
    const std::int64_t mem_kb_per_proc =
        j.mem_per_node.count() / (1024 * options.procs_per_node);
    out << strformat(
        "%u %lld %lld %lld %lld -1 %lld %lld %lld %lld 1 %d -1 -1 -1 -1 -1 "
        "-1\n",
        j.id + 1, static_cast<long long>(j.submit.usec() / 1'000'000),
        -1LL,  // wait time: scheduling output, not part of the description
        static_cast<long long>(j.runtime.usec() / 1'000'000),
        static_cast<long long>(procs),
        static_cast<long long>(mem_kb_per_proc),
        static_cast<long long>(procs),
        static_cast<long long>(j.walltime.usec() / 1'000'000),
        static_cast<long long>(mem_kb_per_proc), j.user);
  }
}

}  // namespace dmsched::testing
