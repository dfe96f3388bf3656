// Parallel parameter-sweep harness. Simulation runs are independent, so
// sweeps parallelize embarrassingly; every parallel loop goes through
// `parallel_for_chunked`, a per-call fork/join. Each index of a real sweep
// is a whole simulation, so the ~100 µs of thread startup per call is noise.
//
// Determinism contract: lanes claim contiguous chunks of the index range
// from one atomic counter, every index writes only its own pre-sized result
// slot, and no result depends on which thread ran an index or in what
// order, so sweep output is byte-identical across thread counts and chunk
// sizes. tests/golden/ enforces this.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/experiment.hpp"

namespace dmsched {

/// How a loop spreads over threads.
struct SweepOptions {
  /// Lanes the loop may use, the calling thread included. 0 means hardware
  /// concurrency, and larger values are capped at it. 1 runs the loop
  /// serially on the caller and starts no thread.
  unsigned threads = 0;
  /// Indices claimed per atomic grab; 0 and 1 both claim one at a time.
  std::size_t chunk = 0;
};

/// Visit every index in [0, count) exactly once on up to `options.threads`
/// lanes: the caller plus threads started for this call, each claiming
/// contiguous chunks of `options.chunk` indices from one atomic counter.
/// Ordering between chunks is unspecified; correctness must not depend on
/// it. A loop called from inside another loop's body runs serially on that
/// lane, so a top-level loop never holds more than hardware-concurrency
/// lanes. Concurrent top-level calls each start their own threads.
///
/// Exceptions: if `fn` throws, the loop winds down (a throwing lane abandons
/// the rest of its chunk, unclaimed chunks are abandoned), every exception
/// is captured with its index, and the *lowest-index* one is rethrown on
/// the caller — deterministic, matching the serial path's failure contract.
/// Chunk claims are monotonic, so an exception at the lowest throwing index
/// of any claimed chunk wins regardless of thread timing.
void parallel_for_chunked(std::size_t count, const SweepOptions& options,
                          const std::function<void(std::size_t)>& fn);

/// Run every experiment against one shared trace (comparisons on identical
/// workloads). The trace must outlive the call.
[[nodiscard]] std::vector<RunMetrics> run_sweep_on_trace(
    const std::vector<ExperimentConfig>& configs, const Trace& trace,
    const SweepOptions& options = {});

}  // namespace dmsched
