// Simulation-core infrastructure bench: streaming ingestion and tracing
// overhead, each with its correctness gates.
//
//   streaming ingestion — the million-replay scenario pulled from its
//                   streaming source at a bounded submission look-ahead vs.
//                   the eager arm (the trace materialized, served through an
//                   EagerTraceSource at look-ahead 0), with peak RSS
//                   (VmHWM) and the event queue's peak live id window as the
//                   memory gauges and jobs/sec as the throughput gauge. The
//                   two arms are cross-checked job-for-job and by the
//                   engine's semantic event digest — FATAL on any drift —
//                   and the bench *enforces* the bounded-memory claim: the
//                   eager arm's peak id window must be ≥10× the streaming
//                   arm's. Results go to million_replay.csv.
//   tracing overhead — the same large-replay prefix untraced and with trace
//                   sinks attached at each detail level; every arm must
//                   reproduce the untraced run byte for byte, and an
//                   in-memory sink at lifecycle detail must cost <5%.
//                   Results go to tracing_overhead.csv.
//
// `--smoke` runs both sections at a CI-sized job count; the default run
// takes the streaming comparison to a million jobs. End-to-end throughput
// figures come from perfbench/; bench/README.md records representative
// numbers for these two sections.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "obs/counters.hpp"
#include "obs/perfetto.hpp"
#include "obs/recording_sink.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace dmsched;
using namespace dmsched::bench;

using Clock = std::chrono::steady_clock;

double sec_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Where two runs' RunMetrics first differ, or "" when they are identical
/// down to the last double: the run totals, then every job's outcome in
/// order. Every arm of both sections must reproduce its reference exactly.
std::string first_difference(const RunMetrics& a, const RunMetrics& b) {
  if (a.makespan != b.makespan || a.completed != b.completed ||
      a.killed != b.killed || a.rejected != b.rejected ||
      a.mean_wait_hours != b.mean_wait_hours ||
      a.p95_wait_hours != b.p95_wait_hours || a.mean_bsld != b.mean_bsld ||
      a.mean_dilation != b.mean_dilation || a.jobs.size() != b.jobs.size()) {
    return "run totals";
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobOutcome& x = a.jobs[i];
    const JobOutcome& y = b.jobs[i];
    if (x.fate != y.fate || x.submit != y.submit || x.start != y.start ||
        x.end != y.end || x.dilation != y.dilation) {
      return strformat("job %zu", i);
    }
  }
  return "";
}

// --- streaming ingestion (million-replay) -----------------------------------

struct IngestArm {
  RunMetrics metrics;
  std::uint64_t digest = 0;
  std::size_t peak_id_window = 0;
  double elapsed_s = 0.0;
  std::int64_t peak_rss_kib = -1;
};

/// One streamed replay: jobs pulled on demand, bounded look-ahead. Memory
/// per in-flight job is O(live): the event queue's id window and the live
/// job records both stay bounded. (Per-job *outcomes* are still collected —
/// RunMetrics::jobs is O(trace) in both arms — so the enforced criterion is
/// the event-queue id window, and RSS is reported as observed.)
IngestArm run_streaming_arm(std::size_t jobs, std::size_t lookahead) {
  reset_peak_rss();
  ScenarioStream stream = make_scenario_stream("million-replay",
                                               {.jobs = jobs});
  ExperimentConfig cfg = scenario_experiment(stream, SchedulerKind::kEasy);
  cfg.engine.submit_lookahead = lookahead;
  IngestArm a;
  const auto start = Clock::now();
  SchedulingSimulation sim(cfg.cluster, *stream.source,
                           make_scheduler(cfg.scheduler, cfg.mem_options),
                           cfg.engine);
  a.metrics = sim.run();
  a.elapsed_s = sec_since(start);
  a.digest = sim.event_digest();
  a.peak_id_window = sim.peak_event_id_window();
  a.peak_rss_kib = peak_rss_kib();
  return a;
}

/// The eager arm: the whole trace materialized and served through an
/// EagerTraceSource, every submission pushed up front (look-ahead 0).
IngestArm run_eager_arm(std::size_t jobs) {
  reset_peak_rss();
  const Scenario scenario = make_scenario("million-replay", {.jobs = jobs});
  const ExperimentConfig cfg =
      scenario_experiment(scenario, SchedulerKind::kEasy);
  IngestArm a;
  const auto start = Clock::now();
  EagerTraceSource source(scenario.trace);
  SchedulingSimulation sim(cfg.cluster, source,
                           make_scheduler(cfg.scheduler, cfg.mem_options),
                           cfg.engine);
  a.metrics = sim.run();
  a.elapsed_s = sec_since(start);
  a.digest = sim.event_digest();
  a.peak_id_window = sim.peak_event_id_window();
  a.peak_rss_kib = peak_rss_kib();
  return a;
}

/// Cross-check the two arms job-for-job and by digest. Returns false (after
/// printing a diagnostic) on any drift.
bool arms_agree(std::size_t jobs, const IngestArm& stream,
                const IngestArm& eager) {
  if (stream.digest != eager.digest) {
    std::fprintf(stderr,
                 "FATAL: event digest drift at %zu jobs "
                 "(stream %llx vs eager %llx)\n",
                 jobs, static_cast<unsigned long long>(stream.digest),
                 static_cast<unsigned long long>(eager.digest));
    return false;
  }
  const std::string diff = first_difference(stream.metrics, eager.metrics);
  if (!diff.empty()) {
    std::fprintf(stderr, "FATAL: metrics drift at %zu jobs (%s)\n", jobs,
                 diff.c_str());
    return false;
  }
  return true;
}

std::string rss_mib(std::int64_t kib) {
  return kib < 0 ? std::string("n/a") : f1(static_cast<double>(kib) / 1024.0);
}

// --- tracing overhead -------------------------------------------------------

struct TracedArm {
  RunMetrics metrics;
  std::uint64_t digest = 0;
  double cpu_s = 0.0;  ///< the run's thread CPU time
};

/// CPU time consumed so far by the calling thread.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One EASY replay of `scenario` with the given observers attached (either
/// may be null — both null is the untraced baseline).
TracedArm run_traced(const Scenario& scenario, obs::TraceSink* sink,
                     obs::CounterRegistry* counters,
                     obs::TraceDetail detail = obs::TraceDetail::kFull) {
  ExperimentConfig cfg = scenario_experiment(scenario, SchedulerKind::kEasy);
  cfg.engine.sink = sink;
  cfg.engine.trace_detail = detail;
  cfg.engine.counters = counters;
  TracedArm a;
  const double start = thread_cpu_s();
  EagerTraceSource source(scenario.trace);
  SchedulingSimulation sim(cfg.cluster, source,
                           make_scheduler(cfg.scheduler, cfg.mem_options),
                           cfg.engine);
  a.metrics = sim.run();
  a.cpu_s = thread_cpu_s() - start;
  a.digest = sim.event_digest();
  return a;
}

/// Tracing-overhead section: the same large-replay prefix untraced (the
/// disabled arm — one never-taken branch per emission site, 0% by
/// construction), then with sinks attached at each detail level, then with
/// the PerfettoTraceWriter streaming JSON to disk. Enforced:
///  - RunMetrics and the semantic event digest are identical across every
///    arm — tracing observes, never perturbs;
///  - an attached in-memory sink at lifecycle detail costs <5% over the
///    untraced baseline. Lifecycle is the budgeted always-on level; the
///    deeper levels are diagnostics and are priced in the table: kFull
///    reads the wall clock twice per pass, which alone is ~8% of a replay
///    that runs at ~1.4 us/job.
/// On a shared host one replay's speed swings by several percent from run
/// to run, so neither one run nor the fastest of a few prices a
/// few-percent cost. Each rep runs every in-memory arm once, in an order
/// rotated by one arm per rep (no arm always runs first or after the same
/// neighbour), timed in thread CPU time (preemption does not count). An
/// arm's overhead is the median over reps of its time over the untraced
/// arm's time in the same rep. A second untraced arm (A/A) prices the
/// estimator's own error on identical work. The diagnostic arms run for
/// the first kMinReps reps; the gated ones (untraced, A/A, lifecycle) go on
/// until the A/A median's standard error is under 0.25%, and the table
/// prints the A/A reading.
/// The JSON writer runs once, reported, not enforced — its cost is
/// dominated by serialization and disk I/O, which CI machines vary on
/// wildly.
bool run_tracing_overhead_section(std::size_t jobs) {
  constexpr std::size_t kMinReps = 31;
  constexpr std::size_t kMaxReps = 401;
  constexpr double kTargetSe = 0.0025;
  const Scenario scenario = make_scenario("large-replay", {.jobs = jobs});

  obs::RecordingSink recorder;
  obs::CounterRegistry registry;
  const std::string trace_path = "tracing_overhead_sample.json";

  // A do-nothing sink (every TraceSink callback defaults to empty):
  // isolates what the *engine* adds at full detail — argument marshalling,
  // virtual dispatch, per-pass clock reads and gauge sampling — from what a
  // particular sink does with the data.
  obs::TraceSink null_sink;

  std::size_t recorded = 0;
  struct Arm {
    const char* label;  // table row
    const char* csv;    // CSV arm name
    bool gated;  // runs every rep, not only the first kMinReps
    std::function<TracedArm()> run;
    std::vector<double> cpu_s = {};  // one run per rep it ran in
  };
  Arm arms[] = {
      {"no sink", "none", true,
       [&] { return run_traced(scenario, nullptr, nullptr); }},
      {"no sink again (A/A)", "none-again", true,
       [&] { return run_traced(scenario, nullptr, nullptr); }},
      {"null sink (full)", "null-full", false,
       [&] { return run_traced(scenario, &null_sink, nullptr); }},
      {"lifecycle (enforced <5%)", "lifecycle", true,
       [&] {
         recorder.clear();
         return run_traced(scenario, &recorder, nullptr,
                           obs::TraceDetail::kLifecycle);
       }},
      {"+ pass spans (sched)", "sched", false,
       [&] {
         recorder.clear();
         return run_traced(scenario, &recorder, nullptr,
                           obs::TraceDetail::kSched);
       }},
      {"+ gauges + counters (full)", "full", false,
       [&] {
         recorder.clear();
         TracedArm a = run_traced(scenario, &recorder, &registry);
         recorded = recorder.queued.size() + recorder.rejected.size() +
                    recorder.started.size() + recorder.finished.size() +
                    recorder.passes.size() + recorder.gauges.size();
         return a;
       }},
  };
  constexpr std::size_t kArms = std::size(arms);
  constexpr std::size_t kBase = 0, kAgain = 1, kLifecycle = 3, kFull = 5;

  // Untimed reference run; it also warms the caches and the allocator.
  const TracedArm reference = arms[kBase].run();
  const auto perturbed = [&](const TracedArm& got, const char* label) {
    if (first_difference(reference.metrics, got.metrics).empty() &&
        reference.digest == got.digest) {
      return false;
    }
    std::fprintf(stderr,
                 "FATAL: tracing perturbed the run at %zu jobs "
                 "(arm '%s': digest %llx, untraced %llx)\n",
                 jobs, label, static_cast<unsigned long long>(got.digest),
                 static_cast<unsigned long long>(reference.digest));
    return true;
  };

  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  /// Per-rep time of `arm` over the untraced arm's in the same rep (the
  /// untraced arm ran in every rep `arm` ran in).
  const auto ratios = [&](const Arm& arm) {
    std::vector<double> r(arm.cpu_s.size());
    for (std::size_t rep = 0; rep < r.size(); ++rep) {
      r[rep] = arm.cpu_s[rep] / arms[kBase].cpu_s[rep];
    }
    return r;
  };
  /// Standard error of a median, from the interquartile range.
  const auto median_se = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const double iqr = v[3 * v.size() / 4] - v[v.size() / 4];
    return 1.253 * (iqr / 1.349) / std::sqrt(static_cast<double>(v.size()));
  };

  std::size_t reps = 0;
  while (reps < kMaxReps &&
         (reps < kMinReps || median_se(ratios(arms[kAgain])) >= kTargetSe)) {
    for (std::size_t i = 0; i < kArms; ++i) {
      Arm& arm = arms[(i + reps) % kArms];
      if (!arm.gated && reps >= kMinReps) continue;
      const TracedArm got = arm.run();
      if (perturbed(got, arm.label)) return false;
      arm.cpu_s.push_back(got.cpu_s);
    }
    ++reps;
  }

  obs::PerfettoTraceWriter writer(trace_path);
  const TracedArm json = run_traced(scenario, &writer, nullptr);
  writer.close();
  if (perturbed(json, "perfetto json writer")) return false;

  const auto overhead_pct = [&](const Arm& arm) {
    return 100.0 * (median(ratios(arm)) - 1.0);
  };
  const double aa_pct = overhead_pct(arms[kAgain]);
  const double life_pct = overhead_pct(arms[kLifecycle]);
  const double base_cpu_s = median(arms[kBase].cpu_s);

  ConsoleTable table(strformat(
      "tracing overhead — large-replay (EASY, recording sink, median of %zu "
      "rotated reps in CPU time; A/A spread %.2f%%)",
      reps, std::abs(aa_pct)));
  table.columns({"arm", "jobs", "cpu (s)", "jobs/s", "overhead", "events"});
  auto csv = csv_for("tracing_overhead");
  csv.header({"arm", "jobs", "cpu_s", "jobs_per_s", "overhead_pct",
              "events"});
  const auto row = [&](const char* label, const char* csv_arm, double cpu_s,
                       double pct, std::int64_t events) {
    table.row({label, num(jobs), f3(cpu_s),
               f1(static_cast<double>(jobs) / cpu_s),
               std::strcmp(csv_arm, "none") == 0 ? "-"
                                                 : strformat("%+.2f%%", pct),
               events < 0 ? "-" : num(static_cast<std::size_t>(events))});
    csv.add(csv_arm).add(jobs).add(cpu_s)
        .add(static_cast<double>(jobs) / cpu_s).add(pct).add(events);
    csv.end_row();
  };
  for (std::size_t i = 0; i < kArms; ++i) {
    row(arms[i].label, arms[i].csv, median(arms[i].cpu_s),
        i == kBase ? 0.0 : overhead_pct(arms[i]),
        i == kFull ? static_cast<std::int64_t>(recorded) : -1);
  }
  row("perfetto json writer (full, 1 run)", "perfetto", json.cpu_s,
      100.0 * (json.cpu_s - base_cpu_s) / base_cpu_s,
      static_cast<std::int64_t>(writer.events_written()));
  table.print();

  if (life_pct > 5.0) {
    std::fprintf(stderr,
                 "FATAL: attached-sink overhead %.1f%% at lifecycle detail "
                 "exceeds the 5%% budget (%zu jobs, %zu reps; A/A spread "
                 "%.2f%%)\n",
                 life_pct, jobs, reps, std::abs(aa_pct));
    return false;
  }
  return true;
}

/// Run the streaming-ingestion section. Returns false on a cross-check or
/// bounded-memory-criterion failure.
bool run_streaming_section(const std::vector<std::size_t>& sizes) {
  constexpr std::size_t kLookahead = 256;
  ConsoleTable table(
      "streaming ingestion — million-replay, pull-based source "
      "(lookahead 256) vs. eager source at lookahead 0");
  table.columns({"jobs", "stream (s)", "eager (s)", "stream jobs/s",
                 "eager jobs/s", "stream idwin", "eager idwin", "win ratio",
                 "stream RSS (MiB)", "eager RSS (MiB)"});
  auto csv = csv_for("million_replay");
  csv.header({"arm", "jobs", "lookahead", "elapsed_s", "jobs_per_s",
              "peak_event_id_window", "peak_rss_kib", "id_window_ratio"});

  for (const std::size_t jobs : sizes) {
    // Streaming first: it runs against a fresh watermark, so its RSS figure
    // cannot inherit the eager arm's materialized trace.
    const IngestArm stream = run_streaming_arm(jobs, kLookahead);
    const IngestArm eager = run_eager_arm(jobs);
    if (!arms_agree(jobs, stream, eager)) return false;
    if (stream.peak_id_window == 0 ||
        eager.peak_id_window / stream.peak_id_window < 10) {
      std::fprintf(stderr,
                   "FATAL: bounded-memory criterion failed at %zu jobs: "
                   "eager peak id window %zu is not >= 10x streaming "
                   "peak %zu\n",
                   jobs, eager.peak_id_window, stream.peak_id_window);
      return false;
    }
    const double ratio = static_cast<double>(eager.peak_id_window) /
                         static_cast<double>(stream.peak_id_window);
    table.row({num(jobs), f3(stream.elapsed_s), f3(eager.elapsed_s),
               f1(static_cast<double>(jobs) / stream.elapsed_s),
               f1(static_cast<double>(jobs) / eager.elapsed_s),
               num(stream.peak_id_window), num(eager.peak_id_window),
               strformat("%.0fx", ratio), rss_mib(stream.peak_rss_kib),
               rss_mib(eager.peak_rss_kib)});
    csv.add("stream")
        .add(jobs)
        .add(kLookahead)
        .add(stream.elapsed_s)
        .add(static_cast<double>(jobs) / stream.elapsed_s)
        .add(stream.peak_id_window)
        .add(stream.peak_rss_kib)
        .add(ratio);
    csv.end_row();
    csv.add("eager")
        .add(jobs)
        .add(std::size_t{0})
        .add(eager.elapsed_s)
        .add(static_cast<double>(jobs) / eager.elapsed_s)
        .add(eager.peak_id_window)
        .add(eager.peak_rss_kib)
        .add(ratio);
    csv.end_row();
  }
  table.print();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI mode — both sections at a job count sized for a CI runner.
  // The default run takes the streaming comparison to a million jobs and
  // the tracing comparison to 100k.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  // Streaming ingestion runs first so its RSS watermarks are clean.
  const std::vector<std::size_t> ingest_sizes =
      smoke ? std::vector<std::size_t>{20000}
            : std::vector<std::size_t>{100000, 1000000};
  if (!run_streaming_section(ingest_sizes)) return 1;

  // Tracing overhead runs in --smoke too: the <5% attached-sink budget and
  // the byte-identical-metrics cross-check are CI-enforced claims.
  if (!run_tracing_overhead_section(smoke ? 20000 : 100000)) return 1;
  return 0;
}
