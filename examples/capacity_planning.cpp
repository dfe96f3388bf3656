// Capacity planning: how much node-local DRAM can this center shed if it
// deploys rack-scale memory pools?
//
// Sweeps local-memory size × pool size for a chosen workload model and
// reports the cheapest configuration whose mean bounded slowdown stays
// within a tolerance of the full-memory baseline — the procurement question
// disaggregation studies exist to answer.
//
// With --scenario, sweeps the *machine scale* of a library scenario instead
// (ScenarioParams::{node_scale, pool_scale}): the same regime on machines
// 1–4× the published node count with 0.5–2× the pool capacity, workload
// re-derived per machine. The grid points run in parallel, one simulation
// per index.
//
// With --scenario --rack-grid, sweeps the machine's *topology* instead
// (ScenarioParams::{racks, rack_pool_frac}): the same capacity carved into
// more/fewer racks with more/less of it rack-local — the rack-scale vs
// system-wide provisioning question.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "cluster/system_config.hpp"
#include "common/cli.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "core/sweep.hpp"

namespace {

using namespace dmsched;

/// Guard for scenario-driven grids: infrastructure scenarios default to
/// scale-sized workloads (large-replay: 100k jobs) — a 9-point grid over
/// one is throughput work, not capacity planning. Callers must opt in by
/// overriding the job count.
bool refuse_infrastructure(const std::string& name, std::size_t jobs) {
  if (scenario_info(name).infrastructure && jobs == 0) {
    std::fprintf(stderr,
                 "error: \"%s\" is an infrastructure scenario (its default "
                 "workload is scale-sized); pass an explicit --jobs to "
                 "sweep it anyway\n",
                 name.c_str());
    return true;
  }
  return false;
}

/// The --scenario mode: a node_scale × pool_scale grid over one library
/// scenario. Each grid point rebuilds the scenario (its workload adapts to
/// the scaled machine) and runs one scheduler; the grid itself runs through
/// parallel_for_chunked, each point writing only its own result slot.
struct GridPoint {
  ScenarioParams params;
  Scenario scenario;
  RunMetrics metrics;
};

int run_scale_grid(const std::string& name, std::size_t jobs) {
  const std::vector<double> node_scales = {1.0, 2.0, 4.0};
  const std::vector<double> pool_scales = {0.5, 1.0, 2.0};
  std::vector<GridPoint> grid;
  for (const double ns : node_scales) {
    for (const double ps : pool_scales) {
      GridPoint p;
      p.params.jobs = jobs;
      p.params.node_scale = ns;
      p.params.pool_scale = ps;
      grid.push_back(std::move(p));
    }
  }
  try {
    parallel_for_chunked(grid.size(), SweepOptions{}, [&](std::size_t i) {
      grid[i].scenario = make_scenario(name, grid[i].params);
      grid[i].metrics = run_scenario(grid[i].scenario,
                                     SchedulerKind::kMemAwareEasy);
    });
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  ConsoleTable table("machine-scale grid — " + name + " (mem-easy)");
  table.columns({"node x", "pool x", "nodes", "pool total", "bsld",
                 "wait (h)", "util %", "far-jobs %"});
  for (const GridPoint& p : grid) {
    const auto& m = p.metrics;
    table.row({strformat("%.1f", p.params.node_scale),
               strformat("%.1f", p.params.pool_scale),
               strformat("%d", p.scenario.cluster.total_nodes),
               format_bytes(p.scenario.cluster.total_pool()),
               strformat("%.2f", m.mean_bsld),
               strformat("%.2f", m.mean_wait_hours),
               strformat("%.1f", 100.0 * m.node_utilization),
               strformat("%.1f", 100.0 * m.frac_jobs_far)});
  }
  table.print();
  return 0;
}

/// The --rack-grid mode: racks × rack_pool_frac over one scenario's
/// machine. Same capacity everywhere — only *where* the pool bytes sit
/// changes — so the grid isolates the topology question: how much does
/// rack-scale provisioning cost (or save) versus a system-wide pool?
int run_rack_grid(const std::string& name, std::size_t jobs) {
  const Scenario published = make_scenario(
      name, jobs == 0 ? ScenarioParams{} : ScenarioParams{.jobs = jobs});
  // Feasible rack counts: divisors of the node count around the published
  // racking (at most four, published first for the baseline row).
  std::vector<std::int32_t> rack_counts{published.cluster.racks()};
  for (const std::int32_t candidate :
       {published.cluster.racks() / 2, published.cluster.racks() * 2, 1}) {
    const bool seen = std::find(rack_counts.begin(), rack_counts.end(),
                                candidate) != rack_counts.end();
    if (candidate >= 1 && !seen &&
        published.cluster.total_nodes % candidate == 0 &&
        candidate <= published.cluster.total_nodes) {
      rack_counts.push_back(candidate);
    }
  }
  const std::vector<double> fracs = {0.0, 0.5, 1.0};
  std::vector<GridPoint> grid;
  for (const std::int32_t racks : rack_counts) {
    for (const double frac : fracs) {
      GridPoint p;
      p.params.jobs = jobs;
      p.params.racks = racks;
      p.params.rack_pool_frac = frac;
      grid.push_back(std::move(p));
    }
  }
  try {
    parallel_for_chunked(grid.size(), SweepOptions{}, [&](std::size_t i) {
      grid[i].scenario = make_scenario(name, grid[i].params);
      grid[i].metrics = run_scenario(grid[i].scenario,
                                     SchedulerKind::kMemAwareEasy);
    });
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  ConsoleTable table("rack-topology grid — " + name + " (mem-easy)");
  table.columns({"racks", "rack frac", "pool/rack", "global", "bsld",
                 "wait (h)", "remote %", "global %", "rejected"});
  for (const GridPoint& p : grid) {
    const auto& m = p.metrics;
    table.row({strformat("%d", p.scenario.cluster.racks()),
               strformat("%.2f", p.params.rack_pool_frac),
               format_bytes(p.scenario.cluster.pool_per_rack),
               format_bytes(p.scenario.cluster.global_pool),
               strformat("%.2f", m.mean_bsld),
               strformat("%.2f", m.mean_wait_hours),
               strformat("%.1f", 100.0 * m.remote_access_fraction),
               strformat("%.1f", 100.0 * m.global_access_fraction),
               strformat("%zu", m.rejected)});
  }
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmsched;
  Cli cli("capacity_planning", "find the smallest memory config that holds");
  cli.add_string("model", "mixed", "workload: capability|capacity|mixed");
  cli.add_string("scenario", "",
                 "sweep a library scenario's machine scale instead "
                 "(node_scale x pool_scale grid)");
  cli.add_flag("rack-grid",
               "with --scenario: sweep the topology (racks x rack_pool_frac "
               "grid, capacity held constant) instead of the machine scale");
  cli.add_int("jobs", 2500, "jobs per simulation");
  cli.add_double("tolerance", 0.10,
                 "acceptable bsld regression vs baseline (fraction)");
  if (!cli.parse(argc, argv)) return 1;
  // Bad numbers end in an error line that names the flag, never an abort.
  if (cli.get_int("jobs") < 1) {
    std::fprintf(stderr, "error: --jobs must be >= 1\n");
    return 1;
  }
  const double tolerance = cli.get_double("tolerance");
  if (!std::isfinite(tolerance) || tolerance < 0.0) {
    std::fprintf(stderr, "error: --tolerance must be finite and >= 0\n");
    return 1;
  }

  if (const std::string name = cli.get_string("scenario"); !name.empty()) {
    if (!scenario_exists(name)) {
      std::fprintf(stderr, "error: unknown scenario \"%s\"\n", name.c_str());
      return 1;
    }
    // Scenario grids use the scenario's own job count unless --jobs was
    // given explicitly (the flag's default is sized for the model mode).
    const std::size_t jobs =
        cli.provided("jobs") ? static_cast<std::size_t>(cli.get_int("jobs"))
                             : 0;
    if (refuse_infrastructure(name, jobs)) return 1;
    return cli.get_flag("rack-grid") ? run_rack_grid(name, jobs)
                                     : run_scale_grid(name, jobs);
  }
  if (cli.get_flag("rack-grid")) {
    std::fprintf(stderr, "error: --rack-grid requires --scenario\n");
    return 1;
  }

  const auto parsed_model = workload_model_from_string(cli.get_string("model"));
  if (!parsed_model) {
    std::fprintf(stderr,
                 "error: unknown --model '%s' (capability|capacity|mixed)\n",
                 cli.get_string("model").c_str());
    return 1;
  }
  const WorkloadModel model = *parsed_model;
  const auto jobs = static_cast<std::size_t>(cli.get_int("jobs"));

  auto make = [&](ClusterConfig cluster) {
    ExperimentConfig config;
    config.cluster = std::move(cluster);
    config.scheduler = SchedulerKind::kMemAwareEasy;
    config.model = model;
    config.jobs = jobs;
    config.seed = 1234;
    config.target_load = 0.9;
    config.label = config.cluster.name;
    return config;
  };

  std::vector<ExperimentConfig> sweep;
  sweep.push_back(make(reference_config()));
  const std::vector<std::int64_t> locals = {192, 160, 128, 96, 64};
  const std::vector<std::int64_t> pools = {1024, 2048, 4096};
  for (const auto local : locals) {
    for (const auto pool : pools) {
      sweep.push_back(make(disaggregated_config(local, pool)));
    }
  }

  // The same workload for every config: differences are config-only.
  const Trace trace = make_workload(sweep.front());
  const auto results = run_sweep_on_trace(sweep, trace);
  const double baseline_bsld = results.front().mean_bsld;
  const std::size_t baseline_rejected = results.front().rejected;
  const double budget = baseline_bsld * (1.0 + tolerance);

  ConsoleTable table("capacity planning, model=" +
                     std::string(to_string(model)));
  table.columns({"config", "total mem", "bsld", "vs base", "util %",
                 "rejected", "verdict"});
  std::size_t best = 0;
  Bytes best_mem = sweep.front().cluster.total_memory();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& m = results[i];
    const Bytes total = sweep[i].cluster.total_memory();
    // Acceptable = holds the slowdown budget AND serves at least as much of
    // the workload as the full-memory reference (which itself rejects the
    // above-local-memory population).
    const bool ok = m.mean_bsld <= budget && m.rejected <= baseline_rejected;
    if (ok && total < best_mem) {
      best = i;
      best_mem = total;
    }
    table.row({sweep[i].cluster.name, format_bytes(total),
               strformat("%.2f", m.mean_bsld),
               strformat("%+.1f%%",
                         100.0 * (m.mean_bsld / baseline_bsld - 1.0)),
               strformat("%.1f", 100.0 * m.node_utilization),
               strformat("%zu", m.rejected), ok ? "OK" : "over budget"});
  }
  table.print();
  std::printf("\ncheapest acceptable config: %s (%s total memory, "
              "%.1f%% less than reference)\n",
              sweep[best].cluster.name.c_str(),
              format_bytes(best_mem).c_str(),
              100.0 * (1.0 - ratio(best_mem,
                                   sweep.front().cluster.total_memory())));
  return 0;
}
