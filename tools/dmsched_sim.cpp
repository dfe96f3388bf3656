// dmsched_sim — the command-line simulator.
//
// One binary exposing the full public API surface: machine shape, workload
// source (synthetic model or SWF file), scheduling policy and all its
// knobs, the slowdown model, and CSV outputs for per-job records and the
// system time series. Everything a study needs without writing C++.
//
//   dmsched-sim --workload capacity --scheduler mem-easy --local-gib 128
//               --pool-gib 2048 --jobs 4000 --csv-jobs out.csv
//   dmsched-sim --swf trace.swf --procs-per-node 16 --scheduler easy
//   dmsched-sim --scenario memory-stressed --scheduler easy --csv-jobs out.csv
//   dmsched-sim --scenario million-replay --stream --lookahead 256
//               --checkpoint-interval-min 120 --csv-windows windows.csv
//   dmsched-sim --list-scenarios
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "cluster/system_config.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/input_error.hpp"
#include "common/log.hpp"
#include "common/str.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/fairness.hpp"
#include "obs/counters.hpp"
#include "obs/perfetto.hpp"
#include "workload/characterize.hpp"
#include "workload/scenarios.hpp"
#include "workload/swf.hpp"
#include "workload/transform.hpp"

namespace {

using namespace dmsched;

void write_jobs_csv(const std::string& path, const RunMetrics& m) {
  CsvWriter csv(path);
  if (!csv.ok()) {
    DMSCHED_LOG_WARN("cannot write %s", path.c_str());
    return;
  }
  csv.header({"job", "user", "fate", "nodes", "mem_per_node_gib",
              "submit_s", "start_s", "end_s", "wait_s", "runtime_s",
              "dilation", "bsld", "far_rack_gib", "far_global_gib",
              "sensitivity"});
  for (const JobOutcome& o : m.jobs) {
    const char* fate = o.fate == JobFate::kCompleted ? "completed"
                       : o.fate == JobFate::kKilled  ? "killed"
                                                     : "rejected";
    csv.add(static_cast<std::size_t>(o.id))
        .add(static_cast<std::int64_t>(o.user))
        .add(fate)
        .add(static_cast<std::int64_t>(o.nodes))
        .add(o.mem_per_node.gib())
        .add(o.submit.seconds());
    if (o.fate == JobFate::kRejected) {
      csv.add("").add("").add("");
    } else {
      csv.add(o.start.seconds()).add(o.end.seconds()).add(o.wait().seconds());
    }
    csv.add(o.runtime.seconds())
        .add(o.dilation)
        .add(o.fate == JobFate::kRejected ? 0.0 : o.bounded_slowdown())
        .add(o.far_rack.gib())
        .add(o.far_global.gib())
        .add(to_string(o.sensitivity));
    csv.end_row();
  }
}

void write_windows_csv(const std::string& path, const RunMetrics& m) {
  CsvWriter csv(path);
  if (!csv.ok()) {
    DMSCHED_LOG_WARN("cannot write %s", path.c_str());
    return;
  }
  csv.header({"start_s", "end_s", "mean_busy_nodes", "mean_queued_jobs",
              "busy_node_seconds", "rack_pool_gib_seconds",
              "global_pool_gib_seconds", "submitted", "started", "finished",
              "rejected", "migrated", "migrated_gib"});
  for (const MetricsWindow& w : m.windows) {
    csv.add(w.start.seconds())
        .add(w.end.seconds())
        .add(w.mean_busy_nodes())
        .add(w.mean_queued_jobs())
        .add(w.busy_node_seconds)
        .add(w.rack_pool_gib_seconds)
        .add(w.global_pool_gib_seconds)
        .add(w.jobs_submitted)
        .add(w.jobs_started)
        .add(w.jobs_finished)
        .add(w.jobs_rejected)
        .add(w.jobs_migrated)
        .add(w.migrated_gib);
    csv.end_row();
  }
}

void write_series_csv(const std::string& path, const RunMetrics& m) {
  CsvWriter csv(path);
  if (!csv.ok()) {
    DMSCHED_LOG_WARN("cannot write %s", path.c_str());
    return;
  }
  csv.header({"time_s", "busy_nodes", "queued", "running",
              "rack_pool_used_gib", "global_pool_used_gib"});
  for (const TimeSample& s : m.series) {
    csv.add(s.time.seconds())
        .add(static_cast<std::int64_t>(s.busy_nodes))
        .add(static_cast<std::int64_t>(s.queued_jobs))
        .add(static_cast<std::int64_t>(s.running_jobs))
        .add(s.rack_pool_used.gib())
        .add(s.global_pool_used.gib());
    csv.end_row();
  }
}

/// Reject a flag's value. The error's field is the flag as typed
/// ("--lookahead"), so main reports it without a table lookup.
[[noreturn]] void reject(const char* flag, const std::string& detail) {
  throw InputError(std::string("--") + flag, detail);
}

/// `parsed` — `--flag`'s value looked up by name — or a rejection of that
/// value listing the `known` names.
template <typename T>
T chosen(const Cli& cli, const char* flag, std::optional<T> parsed,
         const std::string& known) {
  if (!parsed) {
    reject(flag,
           "unknown value '" + cli.get_string(flag) + "' (" + known + ")");
  }
  return *parsed;
}

/// The choice `--flag`'s value names among its (name, choice) pairs.
template <typename T>
T parse_choice(const Cli& cli, const char* flag,
               std::initializer_list<std::pair<std::string_view, T>> choices) {
  const std::string value = cli.get_string(flag);
  std::optional<T> parsed;
  std::string known;
  for (const auto& [name, choice] : choices) {
    if (value == name) parsed = choice;
    if (!known.empty()) known += '|';
    known += name;
  }
  return chosen(cli, flag, parsed, known);
}

/// The flag that sets each library field a run can reject: the one place a
/// library InputError becomes a flag name. Fields not listed (a job's, when
/// a source yields a bad job) are reported without a flag.
constexpr std::pair<std::string_view, const char*> kFieldFlags[] = {
    {"total_nodes", "--nodes"}, {"nodes_per_rack", "--nodes-per-rack"},
    {"local_mem_per_node", "--local-gib"}, {"pool_per_rack", "--pool-gib"},
    {"global_pool", "--global-gib"}, {"procs_per_node", "--procs-per-node"},
    {"scenario", "--scenario"}, {"load", "--load"},
    {"node_scale", "--node-scale"}, {"pool_scale", "--pool-scale"},
    {"racks", "--racks"}, {"rack_pool_frac", "--rack-pool-frac"},
    {"remote_penalty", "--remote-penalty"},
    {"gpus_per_node", "--gpus-per-node"}, {"bb_capacity", "--bb-capacity"},
    {"beta_rack", "--beta-rack"}, {"beta_neighbor", "--beta-neighbor"},
    {"beta_global", "--beta-global"}, {"gamma", "--gamma"},
    {"demote_threshold", "--migrate-demote-frac"},
    {"promote_headroom", "--migrate-hysteresis"},
    {"bandwidth_gibps", "--migrate-gibps"},
};

/// The whole run; every bad input surfaces as an InputError for main.
int run(int argc, char** argv) {
  Cli cli("dmsched_sim", "simulate a workload on a disaggregated machine");
  // machine
  cli.add_int("nodes", 1024, "total nodes");
  cli.add_int("nodes-per-rack", 64, "nodes per rack");
  cli.add_int("local-gib", 256, "local memory per node (GiB)");
  cli.add_int("pool-gib", 0, "disaggregated pool per rack (GiB)");
  cli.add_int("global-gib", 0, "cluster-global pool (GiB)");
  // workload
  cli.add_string("workload", "mixed",
                 "synthetic model: capability|capacity|mixed");
  cli.add_string("scenario", "",
                 "library scenario (machine + workload; see --list-scenarios; "
                 "non-zero --jobs/--seed/--load override its defaults)");
  cli.add_double("node-scale", 0.0,
                 "with --scenario: machine-scale multiplier on the node "
                 "count, snapped to whole racks (0 = published machine)");
  cli.add_double("pool-scale", 0.0,
                 "with --scenario: multiplier on rack + global pool "
                 "capacity (0 = published machine)");
  cli.add_int("racks", 0,
              "with --scenario: re-rack the machine into exactly this many "
              "racks, preserving rack-tier bytes (0 = published racking)");
  cli.add_double("rack-pool-frac", -1.0,
                 "with --scenario: fraction of total disaggregated capacity "
                 "provisioned as rack pools, rest global (negative = "
                 "published split)");
  cli.add_double("remote-penalty", 0.0,
                 "with --scenario: multiplier on the remote-tier slowdown "
                 "coefficients (0 = published model)");
  cli.add_int("gpus-per-node", 0,
              "with --scenario: override the rack-pooled GPUs provisioned "
              "per node (0 = published machine)");
  cli.add_int("bb-capacity", 0,
              "with --scenario: override the cluster-global burst-buffer "
              "capacity (GiB; 0 = published machine)");
  cli.add_flag("list-scenarios", "list the scenario library and exit");
  cli.add_string("swf", "", "SWF trace file (overrides --workload)");
  cli.add_int("procs-per-node", 1, "SWF processors per node");
  cli.add_int("jobs", 4000, "synthetic job count / SWF job cap");
  cli.add_int("seed", 42, "synthetic workload seed");
  cli.add_double("load", 0.85, "synthetic offered load target");
  cli.add_double("ref-mem-gib", 256.0,
                 "reference node memory for synthetic footprints (GiB)");
  cli.add_flag("exact-walltimes", "rewrite walltime requests to runtimes");
  // scheduler
  cli.add_string("scheduler", "mem-easy",
                 "fcfs|easy|conservative|mem-easy|adaptive|resource-easy");
  cli.add_string("queue-order", "fcfs", "fcfs|sjf|largest|wfp");
  cli.add_string("placement", "",
                 "named placement strategy: local-first|balanced|"
                 "global-fallback|shared-neighbors (preset for "
                 "--selection/--routing, which override it individually)");
  cli.add_string("selection", "pool-aware",
                 "first-fit|pack-racks|spread-racks|pool-aware");
  cli.add_string("routing", "rack-then-global",
                 "rack-only|rack-then-global|rack-neighbor-global|"
                 "global-only");
  cli.add_string("backfill-order", "queue-order",
                 "queue-order|shortest-first|best-mem-fit");
  cli.add_int("reservation-depth", 1, "EASY-K protected reservations");
  cli.add_double("adaptive-margin-sec", 0.0, "defer-vs-dilate hysteresis");
  cli.add_double("reserve-headroom", 0.0,
                 "mem-easy/adaptive: fraction of each pool tier shielded "
                 "from backfills (kept for the reserved queue front; 0 = "
                 "off)");
  // slowdown model
  cli.add_string("slowdown", "linear", "linear|saturating");
  cli.add_double("beta-rack", 0.30, "rack-pool penalty coefficient");
  cli.add_double("beta-neighbor", 0.375,
                 "neighbor-rack-pool penalty coefficient (draws served by a "
                 "rack hosting none of the job's nodes)");
  cli.add_double("beta-global", 0.45, "global-pool penalty coefficient");
  cli.add_double("gamma", 0.7, "saturating-model exponent");
  // engine
  cli.add_flag("kill-on-walltime", "enforce walltime limits");
  cli.add_int("sample-interval-min", 0, "time-series sampling (0 = off)");
  cli.add_int("lookahead", 0,
              "pending-submission look-ahead window: how many un-fired "
              "submission events the engine keeps scheduled ahead of the "
              "clock (0 = unbounded). Any value is byte-identical; small "
              "windows bound event-queue memory for huge replays");
  cli.add_flag("stream",
               "with --scenario: pull the workload through the streaming "
               "source instead of materializing the trace (month-scale "
               "replays at bounded workload memory; combine with "
               "--lookahead)");
  cli.add_int("checkpoint-interval-min", 0,
              "emit windowed metric checkpoints at this interval "
              "(0 = off; see --csv-windows)");
  // migration (all knobs behind the 0-sentinel: off by default)
  cli.add_int("migrate-interval-min", 0,
              "scan running jobs for tier moves at this interval (0 = "
              "migration off)");
  cli.add_double("migrate-demote-frac", 0.85,
                 "rack-pool used fraction above which its draws demote to "
                 "the global tier");
  cli.add_double("migrate-hysteresis", 0.25,
                 "promotion headroom: global bytes promote back only into "
                 "pools below demote-frac minus this");
  cli.add_double("migrate-gibps", 0.0,
                 "migration copy bandwidth in GiB/s (0 = moves apply "
                 "instantly at the scan)");
  // outputs
  cli.add_string("csv-jobs", "", "write per-job outcomes to this CSV");
  cli.add_string("csv-series", "", "write the time series to this CSV");
  cli.add_string("csv-windows", "",
                 "write checkpointed metric windows to this CSV");
  cli.add_flag("fairness", "print the per-user fairness summary");
  cli.add_string("trace-out", "",
                 "write a Chrome/Perfetto trace-event JSON of the run "
                 "(load in ui.perfetto.dev or chrome://tracing)");
  cli.add_string("trace-detail", "full",
                 "trace granularity: lifecycle|sched|full");
  cli.add_string("counters-out", "",
                 "write end-of-run counters and gauge envelopes to this CSV");
  cli.add_string("log-level", "warn",
                 "stderr diagnostics threshold: debug|info|warn|error");
  if (!cli.parse(argc, argv)) return 1;

  set_log_level(parse_choice<LogLevel>(cli, "log-level",
                                      {{"debug", LogLevel::kDebug},
                                       {"info", LogLevel::kInfo},
                                       {"warn", LogLevel::kWarn},
                                       {"error", LogLevel::kError}}));

  if (cli.get_flag("list-scenarios")) {
    for (const std::string& name : scenario_names()) {
      const ScenarioInfo& info = scenario_info(name);
      // Infrastructure scenarios carry scale-sized defaults (large-replay:
      // 100k jobs); the listing says so instead of letting a casual
      // "run every scenario" loop discover it the slow way.
      std::printf("%-18s %s%s\n", name.c_str(),
                  info.infrastructure ? "[infrastructure] " : "",
                  info.summary.c_str());
      std::printf("%-18s backs %s; expected: %s\n", "", info.paper_figure.c_str(),
                  info.expected_ordering.c_str());
    }
    return 0;
  }

  // A library scenario supplies machine + workload; explicitly provided
  // --jobs/--seed/--load override its defaults (zero keeps the scenario
  // default — ScenarioParams' sentinel), other machine/workload flags are
  // ignored.
  if (cli.get_flag("stream") && cli.get_string("scenario").empty()) {
    reject("stream",
           "requires --scenario (only library scenarios have streaming "
           "workload sources)");
  }
  for (const char* flag : {"lookahead", "jobs", "seed"}) {
    if (cli.get_int(flag) < 0) reject(flag, "must be >= 0");
  }
  // The library holds sizes as int64 byte counts (past kMaxGib GiB, gib()
  // wraps) and counts as int32.
  constexpr std::int64_t kMaxGib = INT64_MAX / kGiB.count();
  constexpr std::int64_t kMaxCount = INT32_MAX;
  for (const auto& [flag, most] :
       {std::pair{"local-gib", kMaxGib}, std::pair{"pool-gib", kMaxGib},
        std::pair{"global-gib", kMaxGib}, std::pair{"bb-capacity", kMaxGib},
        std::pair{"nodes", kMaxCount}, std::pair{"nodes-per-rack", kMaxCount},
        std::pair{"procs-per-node", kMaxCount}, std::pair{"racks", kMaxCount},
        std::pair{"gpus-per-node", kMaxCount}}) {
    if (const std::int64_t n = cli.get_int(flag); n > most || n < -most) {
      reject(flag, strformat("%lld is out of range (at most %lld in "
                             "magnitude)",
                             static_cast<long long>(n),
                             static_cast<long long>(most)));
    }
  }

  std::optional<Scenario> scenario;
  std::optional<ScenarioStream> stream;
  if (const std::string name = cli.get_string("scenario"); !name.empty()) {
    if (cli.provided("swf")) {
      reject("swf",
             "is exclusive with --scenario (a scenario brings its own "
             "workload)");
    }
    ScenarioParams params;
    if (cli.provided("jobs")) {
      params.jobs = static_cast<std::size_t>(cli.get_int("jobs"));
    }
    if (cli.provided("seed")) {
      params.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      if (params.seed == 0) {
        std::fprintf(stderr,
                     "warning: --seed 0 means the scenario's default seed "
                     "(0 is the \"unset\" sentinel); use another seed for a "
                     "distinct workload\n");
      }
    }
    if (cli.provided("load")) params.load = cli.get_double("load");
    params.node_scale = cli.get_double("node-scale");
    params.pool_scale = cli.get_double("pool-scale");
    params.racks = static_cast<std::int32_t>(cli.get_int("racks"));
    params.rack_pool_frac = cli.get_double("rack-pool-frac");
    params.remote_penalty = cli.get_double("remote-penalty");
    params.gpus_per_node =
        static_cast<std::int32_t>(cli.get_int("gpus-per-node"));
    params.bb_capacity = gib(cli.get_int("bb-capacity"));
    if (cli.get_flag("stream")) {
      stream = make_scenario_stream(name, params);
    } else {
      scenario = make_scenario(name, params);
    }
  } else {
    for (const char* knob : {"node-scale", "pool-scale", "racks",
                             "rack-pool-frac", "remote-penalty",
                             "gpus-per-node", "bb-capacity"}) {
      if (cli.provided(knob)) {
        reject(knob,
               "only applies to --scenario machines (size custom machines "
               "with --nodes/--pool-gib)");
      }
    }
  }

  ExperimentConfig config;
  config.cluster = scenario ? scenario->cluster
                   : stream ? stream->cluster
                            : custom_config(
          static_cast<std::int32_t>(cli.get_int("nodes")),
          static_cast<std::int32_t>(cli.get_int("nodes-per-rack")),
          gib(cli.get_int("local-gib")), gib(cli.get_int("pool-gib")),
          gib(cli.get_int("global-gib")));
  config.cluster.validate();
  config.scheduler =
      chosen(cli, "scheduler",
             scheduler_kind_from_string(cli.get_string("scheduler")),
             "fcfs|easy|conservative|mem-easy|adaptive|resource-easy");
  config.mem_options.order = parse_choice<BackfillOrder>(
      cli, "backfill-order",
      {{"queue-order", BackfillOrder::kQueueOrder},
       {"shortest-first", BackfillOrder::kShortestFirst},
       {"best-mem-fit", BackfillOrder::kBestMemFit}});
  if (cli.get_int("reservation-depth") < 1) {
    reject("reservation-depth", "must be >= 1");
  }
  config.mem_options.reservation_depth =
      static_cast<std::size_t>(cli.get_int("reservation-depth"));
  config.mem_options.adaptive_margin_sec =
      cli.get_double("adaptive-margin-sec");
  if (!std::isfinite(config.mem_options.adaptive_margin_sec) ||
      config.mem_options.adaptive_margin_sec < 0.0) {
    reject("adaptive-margin-sec", "must be finite and >= 0");
  }
  config.mem_options.reserve_headroom = cli.get_double("reserve-headroom");
  if (config.mem_options.reserve_headroom < 0.0 ||
      config.mem_options.reserve_headroom >= 1.0) {
    reject("reserve-headroom", "must lie in [0, 1)");
  }
  config.engine.queue_order = parse_choice<QueueOrder>(
      cli, "queue-order",
      {{"fcfs", QueueOrder::kFcfs},
       {"sjf", QueueOrder::kShortestFirst},
       {"largest", QueueOrder::kLargestFirst},
       {"wfp", QueueOrder::kWfp}});
  // A named strategy presets (selection, routing); the individual flags
  // refine it when explicitly provided.
  if (const std::string name = cli.get_string("placement"); !name.empty()) {
    config.engine.placement = make_placement(
        chosen(cli, "placement", placement_strategy_from_string(name),
               "local-first|balanced|global-fallback|shared-neighbors"));
  }
  const auto selection = parse_choice<NodeSelection>(
      cli, "selection",
      {{"first-fit", NodeSelection::kFirstFit},
       {"pack-racks", NodeSelection::kPackRacks},
       {"spread-racks", NodeSelection::kSpreadRacks},
       {"pool-aware", NodeSelection::kPoolAware}});
  if (!cli.provided("placement") || cli.provided("selection")) {
    config.engine.placement.selection = selection;
  }
  const auto routing = parse_choice<PoolRouting>(
      cli, "routing",
      {{"rack-only", PoolRouting::kRackOnly},
       {"rack-then-global", PoolRouting::kRackThenGlobal},
       {"rack-neighbor-global", PoolRouting::kRackNeighborGlobal},
       {"global-only", PoolRouting::kGlobalOnly}});
  if (!cli.provided("placement") || cli.provided("routing")) {
    config.engine.placement.routing = routing;
  }
  config.engine.slowdown.kind = parse_choice<SlowdownModel::Kind>(
      cli, "slowdown",
      {{"linear", SlowdownModel::Kind::kLinear},
       {"saturating", SlowdownModel::Kind::kSaturating}});
  config.engine.slowdown.beta_rack = cli.get_double("beta-rack");
  config.engine.slowdown.beta_neighbor = cli.get_double("beta-neighbor");
  config.engine.slowdown.beta_global = cli.get_double("beta-global");
  config.engine.slowdown.gamma = cli.get_double("gamma");
  // The migration knobs are checked even while migration is off: a bad
  // value is an error, not silently ignored.
  config.engine.migration.demote_threshold =
      cli.get_double("migrate-demote-frac");
  config.engine.migration.promote_headroom =
      cli.get_double("migrate-hysteresis");
  config.engine.migration.bandwidth_gibps = cli.get_double("migrate-gibps");
  config.engine.slowdown.validate();
  config.engine.migration.validate();
  if (scenario || stream) {
    config.engine.slowdown = config.engine.slowdown.with_remote_penalty(
        scenario ? scenario->remote_penalty : stream->remote_penalty);
  }
  config.engine.kill_on_walltime = cli.get_flag("kill-on-walltime");
  if (cli.get_int("sample-interval-min") > 0) {
    config.engine.sample_interval = minutes(cli.get_int("sample-interval-min"));
  }
  config.engine.submit_lookahead =
      static_cast<std::size_t>(cli.get_int("lookahead"));
  if (cli.get_int("checkpoint-interval-min") > 0) {
    config.engine.checkpoint_interval =
        minutes(cli.get_int("checkpoint-interval-min"));
  }
  if (cli.get_int("migrate-interval-min") > 0) {
    config.engine.migration.check_interval =
        minutes(cli.get_int("migrate-interval-min"));
  }

  Trace trace;
  if (stream) {
    // Streaming mode deliberately never materializes the workload, so the
    // eager-only surfaces (characterize, with_exact_walltimes) are
    // unavailable: the point is O(live) workload memory.
    if (cli.get_flag("exact-walltimes")) {
      reject("exact-walltimes",
             "rewrites a materialized trace and cannot apply to --stream");
    }
    config.workload_reference_mem = stream->workload_reference_mem;
    std::printf("scenario: %s — %s (streaming", stream->info.name.c_str(),
                stream->info.summary.c_str());
    if (const auto hint = stream->source->size_hint(); hint.has_value()) {
      std::printf(", %zu jobs", *hint);
    }
    std::printf(", lookahead %zu)\n", config.engine.submit_lookahead);
  } else if (scenario) {
    trace = scenario->trace;
    config.workload_reference_mem = scenario->workload_reference_mem;
    std::printf("scenario: %s — %s\n", scenario->info.name.c_str(),
                scenario->info.summary.c_str());
  } else if (const std::string swf = cli.get_string("swf"); !swf.empty()) {
    SwfOptions options;
    options.procs_per_node =
        static_cast<std::int32_t>(cli.get_int("procs-per-node"));
    auto result = read_swf_file(swf, options);
    if (!result.ok()) reject("swf", result.error);
    std::printf("loaded %zu jobs from %s (%zu skipped, %zu malformed)\n",
                result.jobs_accepted, swf.c_str(), result.jobs_skipped,
                result.lines_malformed);
    trace = result.trace.prefix(static_cast<std::size_t>(cli.get_int("jobs")));
  } else {
    config.model =
        chosen(cli, "workload",
               workload_model_from_string(cli.get_string("workload")),
               "capability|capacity|mixed");
    if (cli.get_int("jobs") == 0) reject("jobs", "must be > 0");
    // The synthetic models size job widths as fractions of the machine.
    if (cli.get_int("nodes") < 8) {
      reject("nodes", "must be >= 8 for a synthetic workload");
    }
    config.jobs = static_cast<std::size_t>(cli.get_int("jobs"));
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    config.target_load = cli.get_double("load");
    const double ref_mem_gib = cli.get_double("ref-mem-gib");
    if (!(ref_mem_gib > 0.0 && ref_mem_gib <= kMaxGib)) {
      reject("ref-mem-gib", strformat("must lie in (0, %lld]",
                                      static_cast<long long>(kMaxGib)));
    }
    config.workload_reference_mem = gib(ref_mem_gib);
    trace = make_workload(config);
  }
  if (!stream && cli.get_flag("exact-walltimes")) {
    trace = with_exact_walltimes(trace);
  }

  if (!stream) {
    const TraceStats stats =
        characterize(trace, config.workload_reference_mem,
                     config.cluster.total_nodes);
    std::printf(
        "workload: %zu jobs, %.1f h span, offered load %.2f, "
        "mem/node p50 %.1f GiB, >local %.1f%%\n",
        stats.job_count, stats.span_hours, stats.offered_load,
        stats.mem_per_node_p50_gib, 100.0 * stats.frac_mem_above_full);
  }
  std::printf("machine : %s (%d nodes, %d racks, %s local, %s pool/rack, "
              "%s global)\n",
              config.cluster.name.c_str(), config.cluster.total_nodes,
              config.cluster.racks(),
              format_bytes(config.cluster.local_mem_per_node).c_str(),
              format_bytes(config.cluster.pool_per_rack).c_str(),
              format_bytes(config.cluster.global_pool).c_str());
  if (config.cluster.has_gpus() || config.cluster.has_burst_buffer()) {
    std::printf("resource: %d GPUs/node (rack-pooled, %lld total), "
                "%s burst buffer\n",
                config.cluster.gpus_per_node,
                static_cast<long long>(config.cluster.total_gpus()),
                format_bytes(config.cluster.bb_capacity).c_str());
  }

  // Passive observability: both attachments leave RunMetrics byte-identical
  // (tests/golden/trace_passivity_test.cpp), so they can ride along on any
  // run without invalidating comparisons against untraced ones.
  config.engine.trace_detail =
      chosen(cli, "trace-detail",
             obs::trace_detail_from_string(cli.get_string("trace-detail")),
             "lifecycle|sched|full");
  std::optional<obs::PerfettoTraceWriter> trace_writer;
  if (const std::string path = cli.get_string("trace-out"); !path.empty()) {
    trace_writer.emplace(path);
    if (!trace_writer->ok()) {
      reject("trace-out", "cannot open " + path + " for the trace");
    }
    config.engine.sink = &*trace_writer;
    DMSCHED_LOG_INFO("tracing at detail '%s' into %s",
                     obs::to_string(config.engine.trace_detail), path.c_str());
  }
  obs::CounterRegistry registry;
  if (!cli.get_string("counters-out").empty()) {
    config.engine.counters = &registry;
  }

  const RunMetrics m = stream ? run_experiment(config, *stream->source)
                              : run_experiment(config, trace);

  if (trace_writer) {
    trace_writer->close();
    if (!trace_writer->ok()) {
      std::fprintf(stderr, "error: trace write to %s failed\n",
                   cli.get_string("trace-out").c_str());
      return 1;
    }
    DMSCHED_LOG_DEBUG("trace closed after %zu events",
                      trace_writer->events_written());
  }

  std::printf("\n=== %s ===\n", m.label.c_str());
  std::printf("completed %zu, killed %zu, rejected %zu over %.1f h\n",
              m.completed, m.killed, m.rejected, m.makespan.hours());
  std::printf("wait      mean %.2f h, p95 %.2f h, max %.2f h\n",
              m.mean_wait_hours, m.p95_wait_hours, m.max_wait_hours);
  std::printf("bsld      mean %.2f, p95 %.2f\n", m.mean_bsld, m.p95_bsld);
  std::printf("util      nodes %.1f%%, rack pools %.1f%% (peak %.1f%%), "
              "global %.1f%%\n",
              100.0 * m.node_utilization, 100.0 * m.rack_pool_utilization,
              100.0 * m.rack_pool_peak, 100.0 * m.global_pool_utilization);
  if (config.cluster.has_gpus() || config.cluster.has_burst_buffer()) {
    std::printf("resource  GPUs %.1f%% (peak %.1f%%), burst buffer %.1f%% "
                "(peak %.1f%%)\n",
                100.0 * m.gpu_utilization, 100.0 * m.gpu_peak,
                100.0 * m.bb_utilization, 100.0 * m.bb_peak);
  }
  std::printf("far mem   %.1f%% of jobs, mean dilation %.3f, %.0f GiB·h\n",
              100.0 * m.frac_jobs_far, m.mean_dilation, m.far_gib_hours);
  std::printf("topology  remote access %.1f%% of bytes (global %.1f%%), "
              "busiest rack pool peak %.1f%%\n",
              100.0 * m.remote_access_fraction,
              100.0 * m.global_access_fraction,
              100.0 * m.rack_pool_busiest_peak);
  if (m.neighbor_access_fraction > 0.0 || m.demotions + m.promotions > 0) {
    std::printf("migrate   neighbor access %.1f%% of bytes, "
                "%zu demoted (%.0f GiB), %zu promoted (%.0f GiB), %.1f/h\n",
                100.0 * m.neighbor_access_fraction, m.demotions, m.demoted_gib,
                m.promotions, m.promoted_gib, m.migrations_per_hour);
  }
  std::printf("thruput   %.1f jobs/h\n", m.jobs_per_hour);

  if (cli.get_flag("fairness")) {
    const FairnessReport r = fairness_report(m);
    std::printf("fairness  %zu users, Jain(bsld) %.3f, Jain(wait) %.3f, "
                "max/min bsld %.1f, top-decile share %.1f%%\n",
                r.users.size(), r.jain_bsld, r.jain_wait,
                r.max_min_bsld_ratio, 100.0 * r.top_decile_node_share);
  }
  if (const std::string path = cli.get_string("csv-jobs"); !path.empty()) {
    write_jobs_csv(path, m);
    std::printf("wrote per-job outcomes to %s\n", path.c_str());
  }
  if (const std::string path = cli.get_string("csv-series"); !path.empty()) {
    write_series_csv(path, m);
    std::printf("wrote time series to %s\n", path.c_str());
  }
  if (const std::string path = cli.get_string("csv-windows"); !path.empty()) {
    if (m.windows.empty()) {
      std::fprintf(stderr,
                   "warning: --csv-windows without --checkpoint-interval-min "
                   "writes an empty table\n");
    }
    write_windows_csv(path, m);
    std::printf("wrote %zu metric windows to %s\n", m.windows.size(),
                path.c_str());
  }
  if (trace_writer) {
    std::printf("wrote trace (%zu events) to %s\n",
                trace_writer->events_written(),
                cli.get_string("trace-out").c_str());
  }
  if (const std::string path = cli.get_string("counters-out");
      !path.empty()) {
    if (!registry.write_csv(path)) {
      DMSCHED_LOG_WARN("cannot write %s", path.c_str());
    } else {
      std::printf("wrote %zu counters, %zu gauges to %s\n",
                  registry.counter_count(), registry.gauge_count(),
                  path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const dmsched::InputError& e) {
    // A flag check names its flag; a library field maps to the flag that
    // set it.
    const std::string& field = e.field();
    const char* flag = field.starts_with("--") ? field.c_str() : nullptr;
    for (const auto& [name, field_flag] : kFieldFlags) {
      if (field == name) flag = field_flag;
    }
    if (flag != nullptr) {
      std::fprintf(stderr, "error: %s: %s\n", flag, e.what());
    } else {
      std::fprintf(stderr, "error: %s\n", e.what());
    }
    return 1;
  }
}
