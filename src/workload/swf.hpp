// Standard Workload Format (SWF) import.
//
// SWF is the Parallel Workloads Archive interchange format: one job per
// line, 18 whitespace-separated fields, ';' comment headers. This reader
// accepts any archive trace; fields DMSched does not model are ignored.
// Reference: Feitelson's PWA format definition, version 2.2.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/units.hpp"
#include "workload/trace.hpp"

namespace dmsched {

/// Conversion knobs applied while importing an SWF trace.
struct SwfOptions {
  /// Processors per node: SWF counts processors, DMSched allocates nodes.
  /// Requested processor counts are divided by this (rounded up).
  std::int32_t procs_per_node = 1;
  /// SWF memory fields are KB *per processor*. Per-node memory becomes
  /// `per_proc_kb * procs_per_node * 1024` bytes. Jobs with no memory field
  /// (-1) get this default instead.
  Bytes default_mem_per_node = gib(std::int64_t{4});
  /// Walltime for jobs missing a requested-time field: runtime times this.
  double walltime_fallback_factor = 1.5;
  /// Drop jobs whose status is not "completed" (1). Archive traces flag
  /// cancelled/failed jobs; including them skews load.
  bool completed_only = true;
};

/// Import outcome: the trace plus per-line accounting.
struct SwfResult {
  Trace trace;
  std::size_t lines_total = 0;
  std::size_t jobs_accepted = 0;
  std::size_t jobs_skipped = 0;     ///< parseable but filtered (status, zero runtime)
  std::size_t lines_malformed = 0;  ///< unparseable lines (reported, not fatal)
  std::string error;                ///< non-empty => hard failure (I/O)

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parse an SWF stream line by line: the one SWF reader. Malformed lines
/// (unparseable, or a value the simulator cannot hold: a field past int64, a
/// node count past int32, a byte count past int64, a time past half of
/// kTimeInfinity) are counted and skipped; only I/O failure is a hard error.
/// Throws InputError naming `procs_per_node` unless it is > 0. Accepted jobs
/// are stably sorted by submit time (archives need not be in order) and
/// rebased so the first submits at t=0.
[[nodiscard]] SwfResult read_swf(std::istream& in, const SwfOptions& options,
                                 std::string trace_name);

/// Parse an SWF file from disk.
[[nodiscard]] SwfResult read_swf_file(const std::string& path,
                                      const SwfOptions& options);

}  // namespace dmsched
