// Simulation-core throughput: the indexed d-ary event queue vs. the old
// lazy-tombstone binary heap, at large-trace scale.
//
// The paper's tables replay full SWF traces, and related work evaluates
// disaggregation on month-scale production traces, so the event core must
// sustain 10^5–10^6-job replays. Until this bench's PR the core was
// quadratic under cancellation: EventQueue::cancel probed the whole heap
// (std::any_of) to answer "already fired?", and next_time() rescanned
// tombstoned fronts. This bench quantifies the rewrite two ways:
//
//   queue replay  — the two queue implementations (legacy = a faithful
//                   local copy of the tombstone heap, indexed = the live
//                   sim/ EventQueue) drive identical event scripts derived
//                   from the large-replay scenario: all submissions pushed
//                   up front (exactly what SchedulingSimulation::run does),
//                   then one cancel per job in two shapes —
//                     walltime-kill: the completion cancels a kill scheduled
//                       just after it. The kill is among the *earliest*
//                       pending events, so the legacy any_of probe finds it
//                       within a few entries: legacy's best case.
//                     reservation churn: the completion cancels a
//                       far-future reservation (the job's planned start
//                       under a month-deep backlog, conservative-backfill
//                       style). Far-future entries live in the leaf half of
//                       the legacy heap vector, so every cancel scans ~n/2
//                       of a 10^5-entry heap — the quadratic regime the
//                       indexed heap removes.
//                   Reported as events/sec with a cross-checked drain
//                   checksum, so a semantic drift between the two
//                   implementations fails loudly instead of benchmarking
//                   different work.
//   end-to-end    — full SchedulingSimulation replays (EASY) of large-replay
//                   prefixes, reported as jobs/sec: what a user of sweeps
//                   and benches actually experiences.
//   scheduler-pass — the incremental-profile rewrite, measured the same
//                   honest way as the queue replay: a faithful bench-local
//                   copy of the pre-incremental EASY pass (full queue walk
//                   every pass, shadow recomputed from scratch) against the
//                   live cached-pass scheduler, both driving complete
//                   simulations of large-replay at load 1.5 — above
//                   saturation, where the queue is deep and scheduler passes
//                   dominate the run. RunMetrics are cross-checked field by
//                   field, so a behavioural drift between the two passes
//                   fails the bench instead of benchmarking different
//                   schedules.
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
//                   arm's. Results go to million_replay.csv (uploaded by
//                   CI, which runs `sim_throughput --smoke` for this
//                   section only at a CI-sized job count).
//
// Results go to the console and sim_throughput.csv; bench/README.md records
// representative numbers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "obs/counters.hpp"
#include "obs/perfetto.hpp"
#include "obs/recording_sink.hpp"
#include "sim/event_queue.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace dmsched;
using namespace dmsched::bench;
using sim::EventClass;
using sim::EventFn;
using sim::EventId;

using Clock = std::chrono::steady_clock;

double sec_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The pre-rewrite event queue, preserved verbatim: a binary heap with lazy
/// cancellation. cancel() answers "pending?" with a full-heap std::any_of
/// probe and next_time() linearly rescans when the front is a tombstone —
/// the O(n)-per-operation behaviour the indexed heap replaces. This is the
/// baseline; the live implementation is sim/event_queue.{hpp,cpp}.
class LegacyTombstoneQueue {
 public:
  EventId push(SimTime time, EventClass cls, EventFn fn) {
    const EventId id = next_id_++;
    heap_.push_back({time, cls, next_seq_++, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++live_;
    return id;
  }

  bool cancel(EventId id) {
    if (id >= next_id_) return false;
    if (cancelled_.contains(id)) return false;
    const bool pending = std::any_of(
        heap_.begin(), heap_.end(),
        [&](const Entry& e) { return e.id == id; });
    if (!pending) return false;
    cancelled_.insert(id);
    --live_;
    return true;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }

  struct Fired {
    EventId id;
    SimTime time;
    EventClass cls;
    EventFn fn;
  };
  Fired pop() {
    while (!heap_.empty() && cancelled_.contains(heap_.front().id)) {
      cancelled_.erase(heap_.front().id);
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
    }
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    --live_;
    return {e.id, e.time, e.cls, std::move(e.fn)};
  }

 private:
  struct Entry {
    SimTime time;
    EventClass cls;
    std::uint64_t seq;
    EventId id;
    EventFn fn;
  };
  static bool later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.cls != b.cls) return a.cls > b.cls;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::unordered_set<EventId> cancelled_;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
};

struct ReplayResult {
  std::size_t events = 0;    // events drained (fired, not cancelled)
  std::size_t cancels = 0;   // successful cancellations
  std::uint64_t checksum = 0;  // order-sensitive digest of the drain
  double elapsed_s = 0.0;
};

/// How far ahead of its submission a job's cancelled event is scheduled.
enum class CancelShape {
  /// Walltime kill: just after the completion — among the earliest pending
  /// events, so even a linear probe finds it near the heap front.
  kWalltimeKill,
  /// Backfill-style reservation at the job's planned start under a deep
  /// backlog: far beyond every near-term event, i.e. in the leaf half of a
  /// binary heap's backing vector, where a linear probe scans ~n/2 entries.
  kReservation,
};

constexpr std::int64_t kReservationHorizonUsec =
    std::int64_t{30} * 24 * 3600 * 1'000'000;  // a month-deep backlog

/// Drive one queue implementation through the trace-derived script: push
/// every submission up front, let each submission schedule its completion
/// plus one future event (per the shape), let each completion cancel that
/// event. Identical for both queues; the checksum folds (id, time) of every
/// fired event in drain order, so the two implementations must agree
/// event-for-event.
template <class Queue>
ReplayResult replay(const Trace& trace, CancelShape shape) {
  ReplayResult r;
  Queue q;
  const auto start = Clock::now();
  for (const Job& j : trace.jobs()) {
    q.push(j.submit, EventClass::kSubmission,
           [&q, &j, &r, shape](SimTime now) {
             const SimTime at =
                 shape == CancelShape::kWalltimeKill
                     ? j.submit + max(j.walltime, j.runtime)
                     : j.submit + usec(kReservationHorizonUsec);
             const EventId target = q.push(at, EventClass::kTimer,
                                           [](SimTime) {});
             q.push(now + j.runtime, EventClass::kCompletion,
                    [&q, &r, target](SimTime) {
                      if (q.cancel(target)) ++r.cancels;
                    });
           });
  }
  while (!q.empty()) {
    auto f = q.pop();
    ++r.events;
    r.checksum = r.checksum * 1099511628211ULL ^
                 (static_cast<std::uint64_t>(f.time.usec()) + f.id);
    f.fn(f.time);
  }
  r.elapsed_s = sec_since(start);
  return r;
}

/// The pre-incremental EASY pass, preserved verbatim: every pass re-walks
/// the whole queue, re-plans every rejected candidate, and recomputes the
/// head's shadow from a fresh sort of the running set — O(queue) plans per
/// pass even when nothing changed. This is the baseline; the live
/// implementation (sched/easy.{hpp,cpp}) caches the converged shadow/extra
/// state against the engine's availability-timeline version and judges only
/// new arrivals.
class LegacyEasyScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "easy"; }
  void schedule(SchedContext& ctx) override {
    const auto queue = ctx.queued_jobs();
    std::size_t qi = 0;
    while (qi < queue.size()) {
      auto alloc =
          plan_start(ctx.cluster(), ctx.job(queue[qi]), ctx.placement());
      if (!alloc) break;
      ctx.start_job(queue[qi], *alloc);
      ++qi;
    }
    if (qi >= queue.size()) return;

    const Job& head = ctx.job(queue[qi]);
    auto running = ctx.running_jobs();
    std::sort(running.begin(), running.end(),
              [](const RunningJob& a, const RunningJob& b) {
                if (a.expected_end != b.expected_end) {
                  return a.expected_end < b.expected_end;
                }
                return a.id < b.id;
              });
    std::int32_t avail = ctx.cluster().free_nodes_total();
    SimTime shadow = kTimeInfinity;
    std::int32_t extra = 0;
    if (avail >= head.nodes) {
      shadow = ctx.now();
      extra = avail - head.nodes;
    } else {
      for (const RunningJob& r : running) {
        avail += r.take.node_total();
        if (avail >= head.nodes) {
          shadow = r.expected_end;
          extra = avail - head.nodes;
          break;
        }
      }
    }
    DMSCHED_ASSERT(shadow < kTimeInfinity,
                   "EASY: head job wider than the machine was not rejected");

    for (std::size_t i = qi + 1; i < queue.size(); ++i) {
      const Job& cand = ctx.job(queue[i]);
      auto alloc = plan_start(ctx.cluster(), cand, ctx.placement());
      if (!alloc) continue;
      const bool ends_before_shadow = ctx.now() + cand.walltime <= shadow;
      const bool within_extra = cand.nodes <= extra;
      if (!ends_before_shadow && !within_extra) continue;
      ctx.start_job(queue[i], *alloc);
      if (!ends_before_shadow) extra -= cand.nodes;
    }
  }
};

/// One full EASY simulation of `scenario`, with either the legacy bench
/// copy or the live incremental scheduler.
RunMetrics run_easy(const Scenario& scenario, bool legacy) {
  const ExperimentConfig cfg =
      scenario_experiment(scenario, SchedulerKind::kEasy);
  std::unique_ptr<Scheduler> sched;
  if (legacy) {
    sched = std::make_unique<LegacyEasyScheduler>();
  } else {
    sched = make_scheduler(SchedulerKind::kEasy);
  }
  EagerTraceSource source(scenario.trace);
  SchedulingSimulation sim(cfg.cluster, source, std::move(sched), cfg.engine);
  return sim.run();
}

/// The pass rewrite must be a pure optimisation: identical decisions,
/// identical metrics, down to the last double.
bool same_schedule(const RunMetrics& a, const RunMetrics& b) {
  return a.makespan == b.makespan && a.completed == b.completed &&
         a.killed == b.killed && a.rejected == b.rejected &&
         a.mean_wait_hours == b.mean_wait_hours &&
         a.p95_wait_hours == b.p95_wait_hours &&
         a.mean_bsld == b.mean_bsld && a.mean_dilation == b.mean_dilation;
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
  if (!same_schedule(stream.metrics, eager.metrics) ||
      stream.metrics.jobs.size() != eager.metrics.jobs.size()) {
    std::fprintf(stderr, "FATAL: metrics drift at %zu jobs\n", jobs);
    return false;
  }
  for (std::size_t i = 0; i < stream.metrics.jobs.size(); ++i) {
    const JobOutcome& s = stream.metrics.jobs[i];
    const JobOutcome& e = eager.metrics.jobs[i];
    if (s.fate != e.fate || s.submit != e.submit || s.start != e.start ||
        s.end != e.end || s.dilation != e.dilation) {
      std::fprintf(stderr, "FATAL: outcome drift at %zu jobs (job %zu)\n",
                   jobs, i);
      return false;
    }
  }
  return true;
}

std::string rss_mib(std::int64_t kib) {
  return kib < 0 ? std::string("n/a") : f1(static_cast<double>(kib) / 1024.0);
}

// --- tracing overhead -------------------------------------------------------

/// RunMetrics must be *byte-identical* with a sink attached: same outcomes,
/// same order, down to the last double. Anything else means the observer
/// perturbed the run.
bool identical_metrics(const RunMetrics& a, const RunMetrics& b) {
  if (!same_schedule(a, b) || a.jobs.size() != b.jobs.size()) return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobOutcome& x = a.jobs[i];
    const JobOutcome& y = b.jobs[i];
    if (x.fate != y.fate || x.submit != y.submit || x.start != y.start ||
        x.end != y.end || x.dilation != y.dilation) {
      return false;
    }
  }
  return true;
}

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
    if (identical_metrics(reference.metrics, got.metrics) &&
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
  // --smoke: CI mode — only the streaming-ingestion section, at a job count
  // sized for a CI runner. The full default run covers all sections and
  // takes the streaming comparison to a million jobs.
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
  if (smoke) return 0;

  const std::size_t kSizes[] = {1000, 10000, 100000};

  ConsoleTable table(
      "sim core throughput — tombstone heap vs. indexed d-ary heap");
  table.columns({"shape", "jobs", "events", "cancels", "legacy (s)",
                 "indexed (s)", "legacy ev/s", "indexed ev/s", "speedup"});
  auto csv = csv_for("sim_throughput");
  // One schema for both sections: queue-replay rows leave jobs_per_s at -1,
  // end-to-end rows leave the legacy/cancel columns at -1 (there is no
  // legacy arm for a full simulation — the live core is the only one).
  csv.header({"workload", "jobs", "events", "cancels", "legacy_s",
              "indexed_s", "legacy_events_per_s", "indexed_events_per_s",
              "speedup", "jobs_per_s"});

  const struct {
    CancelShape shape;
    const char* name;
  } kShapes[] = {
      {CancelShape::kWalltimeKill, "walltime-kill (near-front)"},
      {CancelShape::kReservation, "reservation churn (deep)"},
  };
  for (const auto& [shape, shape_name] : kShapes) {
    for (const std::size_t jobs : kSizes) {
      const Scenario scenario = make_scenario("large-replay", {.jobs = jobs});
      const ReplayResult legacy =
          replay<LegacyTombstoneQueue>(scenario.trace, shape);
      const ReplayResult indexed =
          replay<sim::EventQueue>(scenario.trace, shape);
      if (legacy.checksum != indexed.checksum ||
          legacy.events != indexed.events ||
          legacy.cancels != indexed.cancels) {
        std::fprintf(stderr,
                     "FATAL: drain mismatch (%s, %zu jobs; "
                     "events %zu/%zu, cancels %zu/%zu)\n",
                     shape_name, jobs, legacy.events, indexed.events,
                     legacy.cancels, indexed.cancels);
        return 1;
      }
      const double legacy_eps =
          static_cast<double>(legacy.events) / legacy.elapsed_s;
      const double indexed_eps =
          static_cast<double>(indexed.events) / indexed.elapsed_s;
      const double speedup = legacy.elapsed_s / indexed.elapsed_s;
      table.row({shape_name, num(jobs), num(legacy.events),
                 num(legacy.cancels), f3(legacy.elapsed_s),
                 f3(indexed.elapsed_s), f1(legacy_eps), f1(indexed_eps),
                 strformat("%.1fx", speedup)});
      csv.add(shape_name)
          .add(jobs)
          .add(legacy.events)
          .add(legacy.cancels)
          .add(legacy.elapsed_s)
          .add(indexed.elapsed_s)
          .add(legacy_eps)
          .add(indexed_eps)
          .add(speedup)
          .add(std::int64_t{-1});
      csv.end_row();
    }
  }
  table.print();

  // End-to-end: full EASY replays of the same prefixes on the live core
  // (scheduler + cluster + metrics included), the number sweep users feel.
  ConsoleTable e2e("end-to-end replay (EASY on large-replay prefixes)");
  e2e.columns({"jobs", "elapsed (s)", "jobs/s", "makespan (h)", "completed"});
  for (const std::size_t jobs : kSizes) {
    const Scenario scenario = make_scenario("large-replay", {.jobs = jobs});
    const auto start = Clock::now();
    const RunMetrics m = run_scenario(scenario, SchedulerKind::kEasy);
    const double elapsed = sec_since(start);
    e2e.row({num(jobs), f3(elapsed),
             f1(static_cast<double>(jobs) / elapsed), f1(m.makespan.hours()),
             num(m.completed)});
    csv.add("end-to-end-easy")
        .add(jobs)
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(elapsed)
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(static_cast<double>(jobs) / elapsed);
    csv.end_row();
  }
  e2e.print();

  // Scheduler-pass: legacy full-queue-walk EASY vs. the live incremental
  // scheduler, complete simulations at load 1.5 — above saturation, so the
  // queue stays deep and pass cost dominates. Metrics must agree exactly;
  // the rewrite is only allowed to be faster, never different.
  ConsoleTable sched(
      "scheduler passes — legacy full-walk EASY vs. incremental "
      "(large-replay, load 1.5)");
  sched.columns({"jobs", "legacy (s)", "incremental (s)", "legacy jobs/s",
                 "incremental jobs/s", "speedup"});
  for (const std::size_t jobs : {std::size_t{1000}, std::size_t{3000},
                                 std::size_t{10000}}) {
    const Scenario scenario =
        make_scenario("large-replay", {.jobs = jobs, .load = 1.5});
    const auto lstart = Clock::now();
    const RunMetrics lm = run_easy(scenario, /*legacy=*/true);
    const double legacy_s = sec_since(lstart);
    const auto istart = Clock::now();
    const RunMetrics im = run_easy(scenario, /*legacy=*/false);
    const double incr_s = sec_since(istart);
    if (!same_schedule(lm, im)) {
      std::fprintf(stderr,
                   "FATAL: schedule drift at %zu jobs (legacy vs. "
                   "incremental): makespan %lld/%lld usec, completed "
                   "%zu/%zu, mean wait %.9f/%.9f h\n",
                   jobs, static_cast<long long>(lm.makespan.usec()),
                   static_cast<long long>(im.makespan.usec()), lm.completed,
                   im.completed, lm.mean_wait_hours, im.mean_wait_hours);
      return 1;
    }
    const double speedup = legacy_s / incr_s;
    sched.row({num(jobs), f3(legacy_s), f3(incr_s),
               f1(static_cast<double>(jobs) / legacy_s),
               f1(static_cast<double>(jobs) / incr_s),
               strformat("%.1fx", speedup)});
    csv.add("sched-pass-easy")
        .add(jobs)
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(legacy_s)
        .add(incr_s)
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(speedup)
        .add(static_cast<double>(jobs) / incr_s);
    csv.end_row();
  }
  // The incremental pass alone at the scale the legacy walk cannot reach in
  // reasonable time.
  {
    const std::size_t jobs = 100000;
    const Scenario scenario =
        make_scenario("large-replay", {.jobs = jobs, .load = 1.5});
    const auto start = Clock::now();
    const RunMetrics m = run_easy(scenario, /*legacy=*/false);
    const double elapsed = sec_since(start);
    sched.row({num(jobs), "-", f3(elapsed), "-",
               f1(static_cast<double>(jobs) / elapsed), "-"});
    csv.add("sched-pass-easy-incremental-only")
        .add(jobs)
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(elapsed)
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(std::int64_t{-1})
        .add(static_cast<double>(jobs) / elapsed);
    csv.end_row();
    (void)m;
  }
  sched.print();
  return 0;
}
