// Quickstart: simulate one week of a mixed workload on a disaggregated
// machine and print the headline metrics.
//
//   ./quickstart [--jobs N] [--scheduler mem-easy] [--local-gib 128]
//                [--pool-gib 2048] [--seed 42]
//
// This is the 20-line tour of the public API: build a machine, pick a
// scheduler, generate (or load) a workload, run, read RunMetrics.
#include <cstdint>
#include <cstdio>

#include "cluster/system_config.hpp"
#include "common/cli.hpp"
#include "core/experiment.hpp"

int main(int argc, char** argv) {
  using namespace dmsched;
  Cli cli("quickstart", "minimal DMSched simulation");
  cli.add_int("jobs", 2000, "number of jobs to simulate");
  cli.add_int("local-gib", 128, "local memory per node (GiB)");
  cli.add_int("pool-gib", 2048, "disaggregated pool per rack (GiB)");
  cli.add_string("scheduler", "mem-easy",
                 "fcfs|easy|conservative|mem-easy|adaptive");
  cli.add_int("seed", 42, "workload RNG seed");
  if (!cli.parse(argc, argv)) return 1;
  // Bad numbers end in an error line that names the flag, never an abort.
  // Capping memory at 1 PiB keeps every byte total of the 1024-node
  // machine within int64.
  constexpr std::int64_t kMaxGib = std::int64_t{1} << 20;
  const std::int64_t jobs = cli.get_int("jobs");
  const std::int64_t local_gib = cli.get_int("local-gib");
  const std::int64_t pool_gib = cli.get_int("pool-gib");
  const std::int64_t seed = cli.get_int("seed");
  if (jobs < 1) {
    std::fprintf(stderr, "error: --jobs must be >= 1\n");
    return 1;
  }
  if (local_gib < 1 || local_gib > kMaxGib) {
    std::fprintf(stderr, "error: --local-gib must be in [1, %lld]\n",
                 static_cast<long long>(kMaxGib));
    return 1;
  }
  if (pool_gib < 0 || pool_gib > kMaxGib) {
    std::fprintf(stderr, "error: --pool-gib must be in [0, %lld]\n",
                 static_cast<long long>(kMaxGib));
    return 1;
  }
  if (seed < 0) {
    std::fprintf(stderr, "error: --seed must be >= 0\n");
    return 1;
  }
  const auto scheduler =
      scheduler_kind_from_string(cli.get_string("scheduler"));
  if (!scheduler) {
    std::fprintf(stderr,
                 "error: unknown --scheduler '%s' "
                 "(fcfs|easy|conservative|mem-easy|adaptive|resource-easy)\n",
                 cli.get_string("scheduler").c_str());
    return 1;
  }

  ExperimentConfig config;
  config.cluster = disaggregated_config(local_gib, pool_gib);
  config.scheduler = *scheduler;
  config.model = WorkloadModel::kMixed;
  config.jobs = static_cast<std::size_t>(jobs);
  config.seed = static_cast<std::uint64_t>(seed);
  config.target_load = 0.9;

  const RunMetrics m = run_experiment(config);

  std::printf("machine           : %s (%d nodes, %d racks)\n",
              config.cluster.name.c_str(), config.cluster.total_nodes,
              config.cluster.racks());
  std::printf("scheduler         : %s\n", to_string(config.scheduler));
  std::printf("jobs completed    : %zu (rejected: %zu)\n", m.completed,
              m.rejected);
  std::printf("makespan          : %.1f h\n", m.makespan.hours());
  std::printf("mean wait         : %.2f h   (p95 %.2f h)\n",
              m.mean_wait_hours, m.p95_wait_hours);
  std::printf("mean bounded sld  : %.2f\n", m.mean_bsld);
  std::printf("node utilization  : %.1f %%\n", 100.0 * m.node_utilization);
  std::printf("jobs using pool   : %.1f %%\n", 100.0 * m.frac_jobs_far);
  std::printf("mean dilation     : %.3f\n", m.mean_dilation);
  std::printf("rack-pool util    : %.1f %% (peak %.1f %%)\n",
              100.0 * m.rack_pool_utilization, 100.0 * m.rack_pool_peak);
  return 0;
}
