// Parallel parameter-sweep harness.
//
// Simulation runs are independent, so sweeps parallelize embarrassingly.
// Every parallel loop goes through `parallel_for_chunked`, which runs on one
// persistent, lazily started pool of hardware-concurrency worker threads
// (core/sweep.cpp): the many small sweeps benches and golden suites issue
// pay thread startup once per process, not once per call
// (bench/sweep_throughput measures the difference).
//
// Determinism contract: lanes claim contiguous chunks of the index range
// from one atomic counter, every index writes only its own pre-sized result
// slot, and no result depends on which thread ran an index or in what
// order, so sweep output is byte-identical across thread counts, chunk
// sizes, and pool reuse. tests/golden/ enforces this.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/experiment.hpp"

namespace dmsched {

/// How a loop spreads over the shared pool.
struct SweepOptions {
  /// Lanes the loop may use, the calling thread included. 0 means hardware
  /// concurrency; values above the pool's worker count are harmless (the
  /// surplus lanes never start). 1 runs the loop serially on the caller and
  /// never starts the pool.
  unsigned threads = 0;
  /// Indices claimed per atomic grab. At production scale (thousands of
  /// configs) larger chunks cut counter contention; 1 claims one index at a
  /// time. 0 picks `auto_chunk_size`, so each lane sees several chunks
  /// (load balance) while grabs stay rare (contention).
  std::size_t chunk = 0;
};

/// The chunk size used when `SweepOptions::chunk == 0`:
/// count / (8 × threads), clamped to [1, 64] (`threads` 0 means hardware
/// concurrency). Never 0, and never so large that a lane starves.
[[nodiscard]] std::size_t auto_chunk_size(std::size_t count, unsigned threads);

/// Visit every index in [0, count) exactly once on up to `options.threads`
/// lanes: the caller plus pool workers, each claiming contiguous chunks of
/// `options.chunk` indices from one atomic counter. Ordering between chunks
/// is unspecified; correctness must not depend on it. Nested and concurrent
/// calls are safe (the caller always drains, so progress never needs a free
/// worker).
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
