// perfbench: the repository benchmark's measuring binary, one workload per
// process (so peak RSS is never inherited from another workload).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// A workload is a list of simulation cells built from the seed. Building
// them (trace generation, scenario or stream construction) is the set-up
// and is timed into setup_s, never into jobs_per_s; the simulations receive
// only the built inputs. A cycle is one set-up plus one run of every cell
// through parallel_for_chunked on one lane: one simulation at a time, so
// cells never contend with each other for a shared machine's cores.
//
// Every timed call (a cell, a set-up) sits between two runs of a fixed
// calibration kernel, and its wall time is rescaled to a reference core (see
// Calibration), so that load from other tenants of a shared host cancels.
//
// Untraced (--trace 0), cycles repeat until --seconds have passed and the
// binary reports jobs_per_s from each cell's median repeat (see
// Throughput), the median setup_s and the process's peak RSS. Traced
// (--trace 1), cycles
// alternate between undecorated and decorated (layers.hpp), starting
// undecorated; the decorated ones give the per-layer metrics, whose medians
// are reported, and the two kinds together give the tracing overhead.
//
// Every cell is checked: each job ends terminal, and its event digest,
// RunMetrics fingerprint and SchedulerStats counters equal those of the
// first cycle (so a decorated run must match the undecorated one). A failed
// check, or an exception, counts as one failed operation. The last stdout
// line is one JSON object; run.py compares the digests with the recorded
// reference-seed values and prints the benchmark's result line.
#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/system_config.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "layers.hpp"
#include "topology/placement_policy.hpp"
#include "workload/models.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace dmsched;
using perfbench::Layer;
using perfbench::now_ns;
using perfbench::SpanRecorder;

// --- workloads -------------------------------------------------------------

struct Cell {
  ExperimentConfig config;
  std::unique_ptr<TraceSource> source;  ///< single-use job input
  std::size_t jobs = 0;                 ///< jobs the input holds
};

struct Inputs {
  std::vector<Trace> traces;  ///< backing store of trace-backed cells
  std::vector<Cell> cells;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The i-th generator seed of a benchmark seed (never 0, which scenario
/// parameters treat as "use the default").
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t i) {
  return (splitmix64(seed * 64 + i) >> 1) | 1;
}

/// An eager-backed cell over `trace`, which must not move afterwards.
void add_cell(Inputs& in, const ExperimentConfig& config, const Trace& trace) {
  Cell c;
  c.config = config;
  c.source = std::make_unique<EagerTraceSource>(trace);
  c.jobs = trace.size();
  in.cells.push_back(std::move(c));
}

// Per-seed cost varies a lot between traces (one deep backlog can cost more
// than ten shallow ones), so the trace-backed workloads run many
// independently seeded traces per cycle: that is what keeps the spread of
// jobs_per_s across seeds small.

// The paper's 1024-node reference machine with disaggregated pools, as in
// `dmsched-sim --nodes 1024 --pool-gib 2048 --global-gib 4096 --local-gib 128
// --load 1.1`: mixed-model traces, footprints against 256 GiB nodes.
Inputs paper_inputs(std::uint64_t seed, SchedulerKind kind,
                    std::size_t traces, std::size_t jobs) {
  ExperimentConfig config;
  config.cluster = custom_config(1024, 64, gib(std::int64_t{128}),
                                 gib(std::int64_t{2048}),
                                 gib(std::int64_t{4096}));
  config.scheduler = kind;
  Inputs in;
  in.traces.reserve(traces);
  for (std::size_t i = 0; i < traces; ++i) {
    in.traces.push_back(make_model_trace(WorkloadModel::kMixed, jobs,
                                         sub_seed(seed, i), 1024,
                                         gib(std::int64_t{256}), 1.1));
    add_cell(in, config, in.traces.back());
  }
  return in;
}

Inputs paper_conservative(std::uint64_t seed) {
  return paper_inputs(seed, SchedulerKind::kConservative, 120, 300);
}

Inputs paper_mem_easy(std::uint64_t seed) {
  return paper_inputs(seed, SchedulerKind::kMemAwareEasy, 16, 2500);
}

// million-replay streamed with the documented replay flags (EASY, look-ahead
// 256, 120-minute checkpoint windows). The replay tiles one fixed day, so
// the seed sets the offered load, within ±5% of the published 0.8.
Inputs replay_stream(std::uint64_t seed) {
  ScenarioParams params;
  params.load =
      0.8 * (0.95 + 0.1 * static_cast<double>(splitmix64(seed) >> 11) /
                        static_cast<double>(1ULL << 53));
  ScenarioStream stream = make_scenario_stream("million-replay", params);
  Cell c;
  c.config = scenario_experiment(stream, SchedulerKind::kEasy);
  c.config.engine.submit_lookahead = 256;
  c.config.engine.checkpoint_interval = minutes(120);
  c.jobs = stream.source->size_hint().value_or(0);
  c.source = std::move(stream.source);
  Inputs in;
  in.cells.push_back(std::move(c));
  return in;
}

// shared-neighbors at twice the published machine, mem-easy with the
// shared-neighbors placement, each trace swept over migration check
// intervals (0 = off) — the run_sweep_on_trace shape, for several traces.
constexpr std::size_t kSweepTraces = 10;
constexpr std::int64_t kSweepIntervalsMin[] = {0, 15, 30, 120};

Inputs neighbor_migration_sweep(std::uint64_t seed) {
  Inputs in;
  in.traces.reserve(kSweepTraces);
  for (std::size_t i = 0; i < kSweepTraces; ++i) {
    ScenarioParams params;
    params.seed = sub_seed(seed, i);
    params.node_scale = 2.0;
    params.jobs = 1000;
    Scenario scenario = make_scenario("shared-neighbors", params);
    ExperimentConfig config =
        scenario_experiment(scenario, SchedulerKind::kMemAwareEasy);
    config.engine.placement =
        make_placement(PlacementStrategy::kSharedNeighbors);
    in.traces.push_back(std::move(scenario.trace));
    for (const std::int64_t interval : kSweepIntervalsMin) {
      config.engine.migration.check_interval = minutes(interval);
      add_cell(in, config, in.traces.back());
    }
  }
  return in;
}

struct Workload {
  const char* name;
  Inputs (*setup)(std::uint64_t seed);
};

constexpr Workload kWorkloads[] = {
    {"paper-conservative", &paper_conservative},
    {"paper-mem-easy", &paper_mem_easy},
    {"replay-stream", &replay_stream},
    {"neighbor-migration-sweep", &neighbor_migration_sweep},
};

// --- host calibration --------------------------------------------------------

/// Rescales wall times to a reference core. The benchmark may share a host
/// with other tenants, whose load slows memory accesses by 10-80% for tens
/// of milliseconds to minutes at a time; no run length averages that out.
/// A fixed kernel -- a dependent-load chase around a 256 KiB ring -- is
/// timed right before and right after each measured call. The call evicts
/// the ring from L2, so a chase times the L3 and memory latency the host
/// gives at that moment, which is what other tenants' load changes. The
/// call's wall time is multiplied by kReferenceNs / (mean chase time per
/// load). A faster simulator still shows in full; a slowdown the host
/// imposes on both cancels.
class Calibration {
 public:
  static constexpr double kReferenceNs = 6.0;  ///< per load on the reference

  Calibration() : ring_(kRing) {
    // One random cycle through every slot, so each load depends on the last
    // and the prefetcher cannot guess the next.
    std::vector<std::uint32_t> order(kRing);
    for (std::uint32_t i = 0; i < kRing; ++i) order[i] = i;
    std::uint64_t x = 1;
    for (std::size_t i = kRing - 1; i > 0; --i) {
      x = splitmix64(x);
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (std::size_t i = 0; i < kRing; ++i) {
      ring_[order[i]] = order[(i + 1) % kRing];
    }
  }

  /// Nanoseconds per load of one chase.
  [[nodiscard]] double ns_per_load() const {
    const std::int64_t t0 = now_ns();
    std::uint32_t p = 0;
    for (int i = 0; i < kLoads; ++i) p = ring_[p];
    sink_ = p;
    return static_cast<double>(now_ns() - t0) / kLoads;
  }

  /// `wall_ns` in reference seconds, given the chases before and after it.
  [[nodiscard]] static double reference_s(std::int64_t wall_ns, double before,
                                          double after) {
    return 1e-9 * static_cast<double>(wall_ns) * kReferenceNs /
           (0.5 * (before + after));
  }

 private:
  static constexpr std::uint32_t kRing = 1 << 16;  // 4-byte slots: 256 KiB
  static constexpr int kLoads = 100000;            // under 1 ms
  std::vector<std::uint32_t> ring_;
  mutable volatile std::uint32_t sink_ = 0;
};

// --- running cells -----------------------------------------------------------

struct CellResult {
  RunMetrics metrics;
  std::uint64_t digest = 0;
  SchedulerStats stats{};
  std::size_t events = 0;
  std::size_t peak_id_window = 0;
  std::int64_t wall_ns = 0;
  double reference_s = 0.0;  ///< wall_ns on the reference core (Calibration)
  double ns_per_load = 0.0;  ///< the host's mean chase time around the cell
  std::string error;
  SpanRecorder rec;  ///< empty unless traced
};

/// One simulation, built exactly as run_experiment builds it; traced, the
/// policy and the input are wrapped in the layers.hpp decorators.
void run_cell(Cell& cell, bool traced, CellResult& out) {
  const std::int64_t t0 = now_ns();
  try {
    const ExperimentConfig& cfg = cell.config;
    std::unique_ptr<Scheduler> policy =
        make_scheduler(cfg.scheduler, cfg.mem_options);
    const SchedulerStats* stats = policy->stats();
    TraceSource* source = cell.source.get();
    std::optional<perfbench::TimedSource> timed_source;
    if (traced) {
      policy = std::make_unique<perfbench::TimedScheduler>(std::move(policy),
                                                           out.rec);
      source = &timed_source.emplace(*cell.source, out.rec);
      out.rec.begin(Layer::kRun);
    }
    {
      SchedulingSimulation sim(cfg.cluster, *source, std::move(policy),
                               cfg.engine);
      out.metrics = sim.run();
      out.digest = sim.event_digest();
      out.events = sim.events_processed();
      out.peak_id_window = sim.peak_event_id_window();
      if (stats != nullptr) out.stats = *stats;
    }
    if (traced) out.rec.end();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.wall_ns = now_ns() - t0;
}

struct Cycle {
  std::vector<CellResult> cells;
  std::int64_t wall_ns = 0;
  std::size_t terminal_jobs = 0;
};

Cycle run_cycle(Inputs& in, bool traced, const Calibration& cal) {
  Cycle c;
  c.cells.resize(in.cells.size());
  SweepOptions options;
  options.threads = 1;
  options.chunk = 1;
  const std::int64_t t0 = now_ns();
  parallel_for_chunked(in.cells.size(), options, [&](std::size_t i) {
    CellResult& r = c.cells[i];
    const double before = cal.ns_per_load();
    run_cell(in.cells[i], traced, r);
    const double after = cal.ns_per_load();
    r.ns_per_load = 0.5 * (before + after);
    r.reference_s = Calibration::reference_s(r.wall_ns, before, after);
  });
  c.wall_ns = now_ns() - t0;
  for (const CellResult& r : c.cells) {
    c.terminal_jobs += r.metrics.completed + r.metrics.killed +
                       r.metrics.rejected;
  }
  return c;
}

// --- correctness -------------------------------------------------------------

/// FNV-1a over every per-job outcome and the run-level aggregates.
std::uint64_t fingerprint(const RunMetrics& m) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  const auto fold_d = [&fold](double d) {
    fold(std::bit_cast<std::uint64_t>(d));
  };
  fold(m.jobs.size());
  for (const JobOutcome& o : m.jobs) {
    fold(o.id);
    fold(static_cast<std::uint64_t>(o.fate));
    fold(static_cast<std::uint64_t>(o.start.usec()));
    fold(static_cast<std::uint64_t>(o.end.usec()));
    fold_d(o.dilation);
    fold(static_cast<std::uint64_t>(o.far_rack.count()));
    fold(static_cast<std::uint64_t>(o.far_neighbor.count()));
    fold(static_cast<std::uint64_t>(o.far_global.count()));
  }
  fold(static_cast<std::uint64_t>(m.makespan.usec()));
  fold(m.completed);
  fold(m.killed);
  fold(m.rejected);
  fold(m.demotions);
  fold(m.promotions);
  fold_d(m.node_utilization);
  fold_d(m.rack_pool_utilization);
  fold_d(m.global_pool_utilization);
  fold_d(m.mean_bsld);
  fold(m.windows.size());
  for (const MetricsWindow& w : m.windows) {
    fold(w.jobs_submitted);
    fold(w.jobs_started);
    fold(w.jobs_finished);
    fold_d(w.busy_node_seconds);
  }
  return h;
}

struct CellCheck {
  std::uint64_t digest = 0;
  std::uint64_t fingerprint = 0;
  SchedulerStats stats{};
};

/// Checks every cell of a cycle; the first (undecorated) cycle's values
/// become the reference every later cycle must reproduce. Returns the
/// number of failed cells.
std::size_t check_cycle(const Inputs& in, const Cycle& c,
                        std::vector<CellCheck>& reference, bool decorated,
                        std::vector<std::string>& notes) {
  std::size_t failed = 0;
  const bool first = reference.empty();
  for (std::size_t i = 0; i < c.cells.size(); ++i) {
    const CellResult& r = c.cells[i];
    const CellCheck k{r.digest, fingerprint(r.metrics), r.stats};
    if (first) reference.push_back(k);
    std::string problem;
    if (!r.error.empty()) {
      problem = "exception: " + r.error;
    } else if (r.metrics.jobs.size() != in.cells[i].jobs ||
               r.metrics.completed + r.metrics.killed + r.metrics.rejected !=
                   r.metrics.jobs.size()) {
      problem = "not every job ended terminal";
    } else if (k.digest != reference[i].digest ||
               k.fingerprint != reference[i].fingerprint) {
      problem = "digest or metrics differ from the first cycle";
    } else if (k.stats.passes != reference[i].stats.passes ||
               k.stats.fast_passes != reference[i].stats.fast_passes ||
               k.stats.plans_attempted != reference[i].stats.plans_attempted) {
      problem = "SchedulerStats differ from the undecorated run";
    } else if (decorated && r.stats.passes != 0 &&
               static_cast<std::uint64_t>(
                   r.rec.totals(Layer::kPass).count) != r.stats.passes) {
      problem = "decorator saw a different number of passes";
    }
    if (!problem.empty()) {
      ++failed;
      notes.push_back("cell " + std::to_string(i) + ": " + problem);
    }
  }
  return failed;
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using MetricMap = std::map<std::string, Metric>;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]); reorders `v`.
double percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// jobs_per_s over repeated cycles of the same cells: jobs per reference
/// second (see Calibration), summing each cell's median run. Calibration
/// cancels a slowdown that hits the chases and the cell alike; the median
/// drops a stall that hit only one run of a cell, or only one chase.
class Throughput {
 public:
  void add(const Cycle& c) {
    jobs_ = static_cast<double>(c.terminal_jobs);
    cell_s_.resize(c.cells.size());
    for (std::size_t i = 0; i < c.cells.size(); ++i) {
      cell_s_[i].push_back(c.cells[i].reference_s);
    }
  }
  [[nodiscard]] double jobs_per_s() const {
    double total = 0.0;
    for (const std::vector<double>& s : cell_s_) total += median(s);
    return ratio(jobs_, total);
  }

 private:
  double jobs_ = 0.0;
  std::vector<std::vector<double>> cell_s_;
};

/// Per-layer metrics of one traced cycle.
MetricMap layer_metrics(const Cycle& c) {
  SpanRecorder::Totals t[perfbench::kLayerCount];
  std::vector<std::int64_t> pass_ns;
  double take_ns = 0, takes = 0, fits = 0;
  double passes = 0, fast = 0, plans = 0, events = 0, peak_window = 0;
  double moves = 0, moved_gib = 0, cell_wall = 0, longest = 0;
  for (const CellResult& r : c.cells) {
    for (std::size_t l = 0; l < perfbench::kLayerCount; ++l) {
      const auto& x = r.rec.totals(static_cast<Layer>(l));
      t[l].count += x.count;
      t[l].total_ns += x.total_ns;
      t[l].self_ns += x.self_ns;
    }
    pass_ns.insert(pass_ns.end(), r.rec.pass_ns().begin(),
                   r.rec.pass_ns().end());
    take_ns += static_cast<double>(r.rec.take_ns);
    takes += static_cast<double>(r.rec.takes);
    fits += static_cast<double>(r.rec.take_fits);
    passes += static_cast<double>(r.stats.passes);
    fast += static_cast<double>(r.stats.fast_passes);
    plans += static_cast<double>(r.stats.plans_attempted);
    events += static_cast<double>(r.events);
    peak_window =
        std::max(peak_window, static_cast<double>(r.peak_id_window));
    moves += static_cast<double>(r.metrics.demotions + r.metrics.promotions);
    moved_gib += r.metrics.demoted_gib + r.metrics.promoted_gib;
    cell_wall += 1e-9 * static_cast<double>(r.wall_ns);
    longest = std::max(longest, 1e-9 * static_cast<double>(r.wall_ns));
  }
  const auto s = [&](Layer l, bool self = false) {
    const auto& x = t[static_cast<std::size_t>(l)];
    return 1e-9 * static_cast<double>(self ? x.self_ns : x.total_ns);
  };
  const auto n = [&](Layer l) {
    return static_cast<double>(t[static_cast<std::size_t>(l)].count);
  };
  const double run_s = s(Layer::kRun);
  const double sched_self = s(Layer::kPass, true);
  const double core_self = s(Layer::kRun, true);
  const double cycle_s = 1e-9 * static_cast<double>(c.wall_ns);
  const double samples = static_cast<double>(pass_ns.size());
  const double p50 = percentile(pass_ns, 0.50);
  const double p99 = percentile(pass_ns, 0.99);

  MetricMap m;
  m["sched.self_s"] = {sched_self, "s"};
  m["sched.wall_share"] = {ratio(sched_self, run_s), "ratio"};
  m["sched.passes"] = {n(Layer::kPass), "count"};
  m["sched.pass_p50_us"] = {1e-3 * p50, "us"};
  m["sched.pass_p99_us"] = {1e-3 * p99, "us"};
  m["sched.pass_samples"] = {samples, "count"};
  m["sched.plans"] = {plans, "count"};
  m["sched.us_per_plan"] = {1e6 * ratio(sched_self, plans), "us"};
  m["sched.fast_pass_frac"] = {ratio(fast, passes), "ratio"};
  m["memory.take_ns"] = {ratio(take_ns, takes), "ns"};
  m["memory.take_fit_frac"] = {ratio(fits, takes), "ratio"};
  m["memory.probes"] = {takes, "count"};
  m["memory.probe_share"] = {ratio(s(Layer::kProbe), run_s), "ratio"};
  m["core.self_s"] = {core_self, "s"};
  m["core.ns_per_event"] = {1e9 * ratio(core_self, events), "ns"};
  m["core.start_s"] = {s(Layer::kStart), "s"};
  m["core.starts"] = {n(Layer::kStart), "count"};
  m["core.query_s"] = {s(Layer::kQuery), "s"};
  m["core.queries"] = {n(Layer::kQuery), "count"};
  m["core.wall_share"] = {
      ratio(core_self + s(Layer::kStart) + s(Layer::kQuery), run_s), "ratio"};
  m["sim.events"] = {events, "count"};
  m["sim.peak_id_window"] = {peak_window, "count"};
  m["workload.pulls"] = {n(Layer::kPull), "count"};
  m["workload.pull_ns"] = {1e9 * ratio(s(Layer::kPull), n(Layer::kPull)),
                           "ns"};
  m["workload.wall_share"] = {ratio(s(Layer::kPull), run_s), "ratio"};
  m["migration.moves"] = {moves, "count"};
  m["migration.moved_gib"] = {moved_gib, "GiB"};
  m["runtime.busy_frac"] = {ratio(cell_wall, cycle_s), "ratio"};
  m["runtime.tail_s"] = {cycle_s - longest, "s"};
  return m;
}

/// Chrome trace-event JSON of one traced cycle's kept spans (one track per
/// cell), loadable in ui.perfetto.dev.
void write_spans(const std::string& path, const Cycle& c) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  std::int64_t origin = -1;
  for (const CellResult& r : c.cells) {
    for (const perfbench::Span& s : r.rec.spans()) {
      if (s.end_ns != 0 && (origin < 0 || s.start_ns < origin)) {
        origin = s.start_ns;
      }
    }
  }
  for (std::size_t cell = 0; cell < c.cells.size(); ++cell) {
    const std::vector<perfbench::Span>& spans = c.cells[cell].rec.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const perfbench::Span& s = spans[i];
      if (s.end_ns == 0) continue;  // left open by an exception
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   first ? "" : ",\n", perfbench::to_string(s.layer), cell,
                   1e-3 * static_cast<double>(s.start_ns - origin),
                   1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                   s.parent);
      first = false;
    }
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

void print_metrics(const MetricMap& m) {
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value, metric.unit);
    first = false;
  }
  std::printf("}");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload_name.c_str());
    return usage();
  }

  const Calibration cal;
  std::vector<std::string> notes;
  if (!bench::reset_peak_rss()) {
    notes.emplace_back(
        "VmHWM reset unavailable: peak_rss_mib covers the whole process");
  }

  // Set-up is measured several times before the first cycle (the last
  // inputs feed it) and once more per later cycle; setup_s is the median,
  // in reference seconds like jobs_per_s.
  constexpr int kSetupReps = 20;
  std::vector<double> setup_s;
  std::vector<double> ns_per_load;
  const auto setup = [&] {
    const double before = cal.ns_per_load();
    const std::int64_t t0 = now_ns();
    Inputs in = workload->setup(seed);
    const std::int64_t wall = now_ns() - t0;
    const double after = cal.ns_per_load();
    setup_s.push_back(Calibration::reference_s(wall, before, after));
    ns_per_load.push_back(0.5 * (before + after));
    return in;
  };
  Inputs inputs;
  for (int i = 0; i < kSetupReps; ++i) inputs = setup();

  std::vector<CellCheck> reference;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Throughput plain;
  Throughput traced;
  std::vector<MetricMap> layer_cycles;
  // Cycles repeat while the next one is expected to end by the deadline;
  // traced runs need one undecorated and at least one decorated cycle.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t cycle_start = now_ns();
  for (std::size_t cycle = 0;; ++cycle) {
    if (cycle > 0) {
      cycle_start = now_ns();
      inputs = setup();
    }
    const bool decorated = trace && cycle % 2 == 1;
    const Cycle c = run_cycle(inputs, decorated, cal);
    for (const CellResult& r : c.cells) ns_per_load.push_back(r.ns_per_load);
    attempted += c.cells.size();
    failed += check_cycle(inputs, c, reference, decorated, notes);
    if (decorated) {
      if (layer_cycles.empty() && !spans_out.empty()) write_spans(spans_out, c);
      layer_cycles.push_back(layer_metrics(c));
      traced.add(c);
    } else {
      plain.add(c);
    }
    const std::int64_t t = now_ns();
    const bool need_decorated = trace && layer_cycles.empty();
    if (t + (t - cycle_start) > deadline && !need_decorated) break;
  }

  char host[128];
  std::snprintf(host, sizeof host,
                "calibration chase: median %.2f ns per load (reference %.1f)",
                median(ns_per_load), Calibration::kReferenceNs);
  notes.emplace_back(host);

  MetricMap out;
  if (trace) {
    for (const auto& [name, metric] : layer_cycles.front()) {
      std::vector<double> values;
      for (const MetricMap& m : layer_cycles) {
        values.push_back(m.at(name).value);
      }
      out[name] = {median(values), metric.unit};
    }
    const double plain_jps = plain.jobs_per_s();
    const double traced_jps = traced.jobs_per_s();
    out["trace.jobs_per_s_delta"] = {traced_jps - plain_jps, "1/s"};
    out["trace.overhead_frac"] = {1.0 - ratio(traced_jps, plain_jps), "ratio"};
  } else {
    out["jobs_per_s"] = {plain.jobs_per_s(), "1/s"};
    out["setup_s"] = {median(setup_s), "s"};
    out["peak_rss_mib"] = {
        static_cast<double>(bench::peak_rss_kib()) / 1024.0, "MiB"};
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"attempted\": %zu, \"failed\": %zu, \"cells\": [",
              workload->name, seed, attempted, failed);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    std::printf("%s{\"digest\": \"%016" PRIx64
                "\", \"fingerprint\": \"%016" PRIx64 "\"}",
                i == 0 ? "" : ", ", reference[i].digest,
                reference[i].fingerprint);
  }
  std::printf("], ");
  print_metrics(out);
  std::printf(", \"notes\": [");
  for (std::size_t i = 0; i < notes.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", json_escape(notes[i]).c_str());
  }
  std::printf("]}\n");
  return 0;
}
