// Many-small-sweeps throughput: cold fork/join vs. the warm persistent pool.
//
// Every paper figure is a parameter sweep, and benches issue many *small*
// sweeps back to back (one per scenario, per beta, per pool size...). A
// sweep engine that spawns and joins a fresh jthread team per call pays
// thread-startup cost every time. This bench quantifies what the persistent
// lane pool behind parallel_for_chunked buys by racing the two on identical
// workloads:
//
//   cold  — a per-call fork/join loop (spawn jthreads, atomic chunk
//           counter, join);
//   warm  — parallel_for_chunked on the process-lifetime pool.
//
// Two workload shapes, both representative:
//   startup-bound  — trivial task bodies, so per-call thread startup is the
//                    entire cost (the upper bound on the win);
//   small-sweeps   — real run_experiment sweeps (5 schedulers on a 60-job
//                    golden-baseline trace), the shape fig benches issue.
//
// Results go to the console and sweep_throughput.csv; bench/README.md
// records representative numbers. Determinism of sweep *output* is
// golden-enforced elsewhere; this bench only measures wall time.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace dmsched;
using namespace dmsched::bench;

using Clock = std::chrono::steady_clock;

/// The per-call baseline: one fresh jthread team per call, chunk claims from
/// one atomic counter, join on scope exit.
void cold_fork_join_for(std::size_t count, unsigned threads,
                        std::size_t chunk,
                        const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  chunk = std::min(count, chunk == 0 ? std::size_t{1} : chunk);
  const std::size_t num_chunks = (count + chunk - 1) / chunk;
  std::atomic<std::size_t> next_chunk{0};
  {
    std::vector<std::jthread> workers;
    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(threads, num_chunks));
    workers.reserve(n);
    for (unsigned w = 0; w < n; ++w) {
      workers.emplace_back([&next_chunk, num_chunks, chunk, count, &fn] {
        for (;;) {
          const std::size_t c =
              next_chunk.fetch_add(1, std::memory_order_relaxed);
          if (c >= num_chunks) return;
          const std::size_t begin = c * chunk;
          const std::size_t end = std::min(count, begin + chunk);
          for (std::size_t i = begin; i < end; ++i) fn(i);
        }
      });
    }
  }  // jthread joins here
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Comparison {
  std::string workload;
  std::size_t sweeps;
  double cold_ms;
  double warm_ms;
};

/// Time `sweeps` repetitions of `one_sweep(use_warm_pool)` per engine.
Comparison compare(std::string workload, std::size_t sweeps,
                   const std::function<void(bool)>& one_sweep) {
  // Start the pool first so "warm" measures reuse, not first-call
  // construction (real processes pay that once, not per sweep).
  parallel_for_chunked(2, {.threads = 2}, [](std::size_t) {});
  Comparison c{std::move(workload), sweeps, 0.0, 0.0};
  const auto cold_start = Clock::now();
  for (std::size_t s = 0; s < sweeps; ++s) one_sweep(false);
  c.cold_ms = ms_since(cold_start);
  const auto warm_start = Clock::now();
  for (std::size_t s = 0; s < sweeps; ++s) one_sweep(true);
  c.warm_ms = ms_since(warm_start);
  return c;
}

}  // namespace

int main() {
  // Floor the team size at 4 so the cold path's per-call thread spawns are
  // visible even on small CI machines; the warm path never spawns per call,
  // and lanes above the pool's worker count never start.
  const unsigned threads = std::max(4u, std::thread::hardware_concurrency());

  // Shape 1: startup-bound. 512 sweeps of 64 near-empty tasks — the cost is
  // almost entirely "get 64 indices onto threads and join".
  std::atomic<std::uint64_t> sink{0};
  const auto trivial = [&](bool warm) {
    constexpr std::size_t kCount = 64;
    const auto fn = [&sink](std::size_t i) {
      sink.fetch_add(i + 1, std::memory_order_relaxed);
    };
    if (warm) {
      // Same lane count as the cold team.
      parallel_for_chunked(kCount, {.threads = threads, .chunk = 1}, fn);
    } else {
      cold_fork_join_for(kCount, threads, 1, fn);
    }
  };

  // Shape 2: real small sweeps — 5 schedulers on one shared 60-job
  // golden-baseline trace, the exact shape fig benches and golden suites
  // issue many times back to back.
  const Scenario scenario =
      make_scenario("golden-baseline", ScenarioParams{.jobs = 60});
  std::vector<ExperimentConfig> configs;
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    configs.push_back(scenario_experiment(scenario, kind));
  }
  std::vector<RunMetrics> results(configs.size());
  const auto small_sweep = [&](bool warm) {
    const auto fn = [&](std::size_t i) {
      results[i] = run_experiment(configs[i], scenario.trace);
    };
    if (warm) {
      parallel_for_chunked(configs.size(), {.threads = threads, .chunk = 1},
                           fn);
    } else {
      cold_fork_join_for(configs.size(), threads, 1, fn);
    }
  };

  ConsoleTable table("sweep throughput — cold fork/join vs. warm pool");
  table.columns({"workload", "sweeps", "cold (ms)", "warm (ms)",
                 "cold µs/sweep", "warm µs/sweep", "speedup"});
  auto csv = csv_for("sweep_throughput");
  csv.header({"workload", "sweeps", "cold_ms", "warm_ms", "cold_us_per_sweep",
              "warm_us_per_sweep", "speedup"});

  for (const Comparison& c :
       {compare("startup-bound (64 empty tasks)", 512, trivial),
        compare("small sweeps (5 scheds x 60 jobs)", 64, small_sweep)}) {
    const double cold_us = 1000.0 * c.cold_ms / static_cast<double>(c.sweeps);
    const double warm_us = 1000.0 * c.warm_ms / static_cast<double>(c.sweeps);
    const double speedup = c.warm_ms > 0.0 ? c.cold_ms / c.warm_ms : 0.0;
    table.row({c.workload, num(c.sweeps), f1(c.cold_ms), f1(c.warm_ms),
               f1(cold_us), f1(warm_us), strformat("%.2fx", speedup)});
    csv.add(c.workload)
        .add(c.sweeps)
        .add(c.cold_ms)
        .add(c.warm_ms)
        .add(cold_us)
        .add(warm_us)
        .add(speedup);
    csv.end_row();
  }
  table.print();
  std::printf("(threads: %u; sink %llu — keeps the empty tasks honest)\n",
              threads,
              static_cast<unsigned long long>(sink.load()));
  return 0;
}
