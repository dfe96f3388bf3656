#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

namespace dmsched {

namespace {

/// True on a lane while it drains a loop. A loop called from inside a body
/// sees it and runs serially on that lane, which bounds a top-level loop
/// (nested loops included) at the lanes it started with.
thread_local bool in_loop = false;

}  // namespace

void parallel_for_chunked(std::size_t count, const SweepOptions& options,
                          const std::function<void(std::size_t)>& fn) {
  const unsigned hardware = std::max(std::thread::hardware_concurrency(), 1u);
  const unsigned threads =
      options.threads == 0 ? hardware : std::min(options.threads, hardware);
  // Clamp to count so oversized chunk requests cannot overflow the
  // num_chunks arithmetic (one chunk is all they can mean anyway).
  const std::size_t chunk = std::clamp<std::size_t>(
      options.chunk, 1, std::max<std::size_t>(count, 1));
  const std::size_t num_chunks = (count + chunk - 1) / chunk;
  const std::size_t lanes = std::min<std::size_t>(threads, num_chunks);
  if (in_loop || lanes <= 1) {
    // Serial path, starting no thread: an exception propagates from the
    // first throwing index, the contract the parallel path reproduces.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next_chunk{0};
  std::mutex error_mutex;
  /// (index, error) pairs, unordered; the lowest index is rethrown.
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  const auto lane = [&] {
    in_loop = true;
    std::size_t c = 0;
    while ((c = next_chunk.fetch_add(1, std::memory_order_relaxed)) <
           num_chunks) {
      const std::size_t end = std::min(count, (c + 1) * chunk);
      for (std::size_t i = c * chunk; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            errors.emplace_back(i, std::current_exception());
          }
          // Claim every remaining chunk so all lanes wind down promptly
          // (chunks already claimed still finish or throw, and are recorded).
          next_chunk.store(num_chunks, std::memory_order_relaxed);
          break;
        }
      }
    }
    in_loop = false;
  };
  {
    std::vector<std::jthread> team;
    for (std::size_t t = 1; t < lanes; ++t) {
      try {
        team.emplace_back(lane);
      } catch (const std::system_error&) {
        break;  // no thread to spare: the lanes already running drain it all
      }
    }
    lane();
  }  // joins the team
  if (!errors.empty()) {
    const auto lowest = std::min_element(
        errors.begin(), errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(lowest->second);
  }
}

std::vector<RunMetrics> run_sweep_on_trace(
    const std::vector<ExperimentConfig>& configs, const Trace& trace,
    const SweepOptions& options) {
  std::vector<RunMetrics> results(configs.size());
  parallel_for_chunked(configs.size(), options, [&](std::size_t i) {
    results[i] = run_experiment(configs[i], trace);
  });
  return results;
}

}  // namespace dmsched
