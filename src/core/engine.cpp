#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/input_error.hpp"
#include "common/str.hpp"
#include "obs/counters.hpp"

namespace dmsched {

namespace {

[[noreturn]] void sink_abort(const char* what) {
  std::fprintf(stderr,
               "dmsched: trace sink threw mid-run: %s\n"
               "  observers must be passive and noexcept; aborting rather "
               "than unwinding a half-mutated simulation\n",
               what);
  std::abort();
}

/// Run one sink callback; a throwing sink dies deterministically here
/// instead of propagating through the event loop.
template <typename Fn>
void guarded_emit(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
  } catch (const std::exception& e) {
    sink_abort(e.what());
  } catch (...) {
    sink_abort("non-standard exception");
  }
}

long long raw(SimTime t) { return static_cast<long long>(t.usec()); }

/// The registry gauges set after every pass, in registration order (the
/// order of the values run_scheduler_pass reads).
constexpr const char* kPassGauges[] = {
    "queue_depth", "running_jobs",  "event_queue_size", "event_id_window",
    "busy_nodes",  "rack_pool_gib", "global_pool_gib"};

}  // namespace

void SchedulingSimulation::JobRing::reserve(std::size_t capacity) {
  if (capacity <= slots_.size()) return;
  // Unwrap the live span into the front of the new buffer.
  std::vector<JobSlot> grown(capacity);
  for (std::size_t k = 0; k < count_; ++k) {
    grown[k] = std::move(slots_[index(k)]);
  }
  slots_ = std::move(grown);
  head_ = 0;
}

void SchedulingSimulation::JobRing::push(Job job) {
  constexpr std::size_t kMinSlots = 16;
  if (count_ == slots_.size()) reserve(std::max(kMinSlots, 2 * count_));
  JobSlot& s = slots_[index(count_)];
  s.job = std::move(job);
  s.rt = JobRuntime{};
  ++count_;
}

void SchedulingSimulation::JobRing::pop_front() {
  DMSCHED_ASSERT(count_ > 0, "JobRing::pop_front: ring is empty");
  head_ = index(1);
  ++base_;
  --count_;
}

const SchedulingSimulation::JobSlot& SchedulingSimulation::JobRing::operator[](
    JobId id) const {
  DMSCHED_ASSERT(live(id), "job id is not a live job (retired or unpulled)");
  return slots_[index(id - base_)];
}

SchedulingSimulation::SchedulingSimulation(ClusterConfig config,
                                           TraceSource& source,
                                           std::unique_ptr<Scheduler> scheduler,
                                           EngineOptions options)
    : config_(std::move(config)),
      source_(source),
      scheduler_(std::move(scheduler)),
      options_(options),
      cluster_(config_),
      migration_(options_.migration),
      topology_(config_),
      timeline_(config_),
      admission_state_(empty_state(config_)) {
  DMSCHED_ASSERT(scheduler_ != nullptr, "simulation needs a scheduler");
  // Every walltime bound is the walltime dilated by this model; a negative
  // coefficient would shrink it below the walltime, which the reservation
  // sweep relies on never happening (FreeProfile::earliest_fit_window).
  options_.slowdown.validate();
  // Look-ahead 0 pulls every job before the first event, so the advisory
  // size fits the ring exactly; a bounded window's ring doubles as needed.
  const std::size_t expect = source_.size_hint().value_or(0);
  if (options_.submit_lookahead == 0) ring_.reserve(expect);
  metrics_.jobs.reserve(expect);
  metrics_.label = std::string(scheduler_->name()) + "/" + config_.name;
  track_usage_ = options_.checkpoint_interval > SimTime{0} ||
                 options_.sample_interval > SimTime{0};
}

SimTime SchedulingSimulation::now() const { return engine_.now(); }

const Cluster& SchedulingSimulation::cluster() const { return cluster_; }

const Job& SchedulingSimulation::job(JobId id) const { return ring_[id].job; }

std::vector<JobId> SchedulingSimulation::queued_jobs() const {
  // The array is already in FCFS order — see queue_token_ — so only the
  // re-ranking orders sort.
  std::vector<JobId> ids = queue_;
  const QueueOrder order = options_.queue_order;
  if (order != QueueOrder::kFcfs) {
    const SimTime now = engine_.now();
    std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
      return queue_precedes(ring_[a].job, ring_[b].job, order, now);
    });
  }
  return ids;
}

PlacementPolicy SchedulingSimulation::placement() const {
  return options_.placement;
}

const SlowdownModel& SchedulingSimulation::slowdown() const {
  return options_.slowdown;
}

const Topology& SchedulingSimulation::topology() const { return topology_; }

MigrationPolicy SchedulingSimulation::migration() const {
  return options_.migration;
}

const AvailabilityTimeline* SchedulingSimulation::timeline() const {
  return &timeline_;
}

bool SchedulingSimulation::queue_order_stable() const {
  // FCFS orders by (submit, id), which is exactly append order; every other
  // policy re-ranks the queue per pass, so suffixes are not incremental.
  return options_.queue_order == QueueOrder::kFcfs;
}

std::uint64_t SchedulingSimulation::queue_tail_epoch() const {
  return queue_token_;
}

std::vector<JobId> SchedulingSimulation::queued_jobs_after(
    std::uint64_t epoch) const {
  DMSCHED_ASSERT(epoch <= queue_token_,
                 "queued_jobs_after: epoch from the future");
  // Ids rise from front to back, so the jobs appended since `epoch` are the
  // array's suffix of ids >= epoch.
  const auto first = std::lower_bound(queue_.begin(), queue_.end(), epoch);
  return {first, queue_.end()};
}

void SchedulingSimulation::observe(const Transition& t) {
  using Kind = Transition::Kind;
  const SimTime now = engine_.now();
  static constexpr char kDigestTag[] = {'S', 'S', 'R', 'C', 'M'};
  digest_fold(std::uint64_t(kDigestTag[static_cast<int>(t.kind)]));
  digest_fold(t.job);
  digest_fold(static_cast<std::uint64_t>(now.usec()));
  if (t.kind == Kind::kMigrated) {
    digest_fold(static_cast<std::uint64_t>(t.move->kind));
    digest_fold(static_cast<std::uint64_t>(t.move->bytes.count()));
  }

  // Up to now the usage is what the previous transition left (usage_).
  const auto emit_sample = [this] {
    metrics_.series.push_back(usage_);
    metrics_.series.back().time = next_sample_;
    next_sample_ += options_.sample_interval;
  };
  if (track_usage_) {
    const SimTime w = options_.checkpoint_interval;
    // Integrate the usage over [window_frontier_, to) into the open window.
    const auto integrate = [&](SimTime to) {
      const double dt = (to - window_frontier_).seconds();
      window_frontier_ = to;
      if (dt <= 0.0) return;
      window_acc_.busy_node_seconds += double(usage_.busy_nodes) * dt;
      window_acc_.queued_job_seconds += double(usage_.queued_jobs) * dt;
      window_acc_.running_job_seconds += double(usage_.running_jobs) * dt;
      window_acc_.rack_pool_gib_seconds += usage_.rack_pool_used.gib() * dt;
      window_acc_.global_pool_gib_seconds += usage_.global_pool_used.gib() * dt;
    };
    for (; w > SimTime{0}; ++window_index_) {
      const SimTime boundary{(window_index_ + 1) * w.usec()};
      if (boundary > now) break;
      integrate(boundary);
      window_acc_.start = SimTime{window_index_ * w.usec()};
      window_acc_.end = boundary;
      metrics_.windows.push_back(window_acc_);
      window_acc_ = MetricsWindow{};
    }
    if (w > SimTime{0}) integrate(now);
    // A sample at boundary b sees the state after b's completions and
    // submissions and before its starts and moves: kTimer's slot in the
    // event order (sim/event.hpp). So a start or move at b emits b, and a
    // completion or submission at b leaves it for a later transition.
    const bool after = t.kind == Kind::kStarted || t.kind == Kind::kMigrated;
    while (next_sample_ < now || (after && next_sample_ == now)) emit_sample();
  }

  switch (t.kind) {
    case Kind::kRejected:
      ++window_acc_.jobs_rejected;
      [[fallthrough]];
    case Kind::kQueued:
      ++window_acc_.jobs_submitted;
      break;
    case Kind::kStarted:
      ++window_acc_.jobs_started;
      break;
    case Kind::kFinished:
      ++window_acc_.jobs_finished;
      break;
    case Kind::kMigrated:
      ++window_acc_.jobs_migrated;
      window_acc_.migrated_gib += t.move->bytes.gib();
      break;
  }
  // Usage means: queueing and rejection hold no resources.
  if (t.kind != Kind::kQueued && t.kind != Kind::kRejected) {
    const double secs = now.seconds();
    busy_nodes_tw_.record(secs, double(cluster_.busy_nodes()));
    rack_pool_tw_.record(secs, double(cluster_.rack_pools_used().count()));
    global_pool_tw_.record(secs, double(cluster_.global_pool_used().count()));
    if (topology_.has_rack_tier()) {
      busiest_rack_pool_peak_ =
          max(busiest_rack_pool_peak_, cluster_.busiest_rack_pool_used());
    }
    if (config_.has_gpus()) {
      gpu_tw_.record(secs, double(cluster_.gpus_used_total()));
    }
    if (config_.has_burst_buffer()) {
      bb_tw_.record(secs, double(cluster_.bb_used().count()));
    }
  }
  if (track_usage_) {
    usage_ = {.busy_nodes = cluster_.busy_nodes(),
              .queued_jobs = static_cast<std::int32_t>(queue_.size()),
              .running_jobs =
                  static_cast<std::int32_t>(timeline_.entries().size()),
              .rack_pool_used = cluster_.rack_pools_used(),
              .global_pool_used = cluster_.global_pool_used()};
    // The timer's stop rule: the series ends with the first sample that
    // sees no live job, the next boundary at or after the last transition.
    if (live_jobs_ == 0 && next_sample_ < kTimeInfinity) emit_sample();
  }

  obs::TraceSink* const sink = options_.sink;
  if (sink == nullptr) return;
  const Job& j = ring_[t.job].job;
  const JobRuntime& r = ring_[t.job].rt;
  guarded_emit([&] {
    switch (t.kind) {
      case Kind::kQueued:
        return sink->on_job_queued({.job = t.job, .submit = now,
                                    .nodes = j.nodes,
                                    .mem_per_node_gib = j.mem_per_node.gib()});
      case Kind::kRejected:
        return sink->on_job_rejected({.job = t.job, .at = now});
      case Kind::kStarted:
        return sink->on_job_started(
            {.job = t.job, .submit = j.submit, .start = r.start,
             .rack = r.home_rack, .nodes = j.nodes, .dilation = r.dilation,
             .far_rack_gib = r.far_rack.gib(),
             .far_neighbor_gib = r.far_neighbor.gib(),
             .far_global_gib = r.far_global.gib()});
      case Kind::kFinished:
        return sink->on_job_finished({.job = t.job, .start = r.start,
                                      .end = now, .rack = r.home_rack,
                                      .killed = r.killed});
      case Kind::kMigrated:
        return sink->on_job_migrated(
            {.job = t.job, .at = now, .rack = t.move->rack,
             .demote = t.move->kind == MigrationKind::kDemote,
             .gib = t.move->bytes.gib(),
             .dilation_before = t.dilation_before,
             .dilation_after = r.dilation});
    }
  });
}

void SchedulingSimulation::migration_check() {
  // The greedy planner is order-sensitive: scan the running set in start
  // order. The timeline keeps it by release, so sort its ids.
  std::vector<JobId> running;
  running.reserve(timeline_.entries().size());
  for (const RunningJob& e : timeline_.entries()) running.push_back(e.id);
  std::sort(running.begin(), running.end(), [this](JobId a, JobId b) {
    return ring_[a].rt.start_seq < ring_[b].rt.start_seq;
  });
  const std::vector<MigrationDecision> moves =
      migration_.plan(cluster_, running);
  for (const MigrationDecision& m : moves) {
    const SimTime latency = migration_.policy().latency_for(m.bytes);
    if (latency > SimTime{0}) {
      // Bandwidth-limited copy: the move lands bytes/bandwidth later, and
      // the job is marked in flight so later scans skip it until it does.
      migration_.on_dispatch(m.job);
      engine_.schedule_in(latency, sim::EventClass::kMigration,
                          [this, m](SimTime) { apply_migration(m, true); });
    } else {
      apply_migration(m, false);
    }
  }
  if (live_jobs_ > 0) {
    engine_.schedule_in(options_.migration.check_interval,
                        sim::EventClass::kMigration,
                        [this](SimTime) { migration_check(); });
  }
}

void SchedulingSimulation::apply_migration(const MigrationDecision& decision,
                                           bool delayed) {
  if (delayed) migration_.on_applied(decision.job);
  const JobId id = decision.job;
  // The copy may have raced the job's completion (kCompletion pops before
  // kMigration at one timestamp, so a finished job is already kDone here, or
  // retired) — the move is moot. Skipping is deterministic: it depends only
  // on event order.
  if (!ring_.live(id) || ring_[id].rt.state != JobState::kRunning) return;
  JobRuntime& r = ring_[id].rt;
  const Allocation* alloc = cluster_.find_allocation(id);
  DMSCHED_ASSERT(alloc != nullptr, "apply_migration: running job unledgered");
  // Re-validate against the live ledger: other jobs started or finished
  // while the copy was in flight, so the capacity plan() saw may be gone.
  const bool demote = decision.kind == MigrationKind::kDemote;
  const Bytes room = demote ? cluster_.global_pool_free()
                            : cluster_.pool_free(decision.rack);
  if (room < decision.bytes) return;

  cluster_.retier(id, rewrite_draws(*alloc, decision));
  // Close the current dilation segment: bank the undilated work it covered,
  // then reprice the remaining work at the new rate. The completion event
  // moves accordingly (strictly later for a demotion, earlier for a
  // promotion — never before now, because now < r.end while we are here).
  const SimTime t = engine_.now();
  const double old_dilation = r.dilation;
  const SimTime old_expected = r.expected_end;
  r.work_done += (t - r.seg_start).scaled(1.0 / old_dilation);
  const Allocation& moved = *cluster_.find_allocation(id);
  price(r, job(id), moved, t);
  const bool cancelled = engine_.cancel(r.completion_event);
  DMSCHED_ASSERT(cancelled, "apply_migration: completion already fired");
  r.completion_event =
      engine_.schedule_at(r.end, sim::EventClass::kCompletion,
                          [this, id](SimTime) { handle_complete(id); });
  // Refresh the availability timeline: the planning bound and the counted
  // take both changed, so incremental passes must see a version bump.
  timeline_.on_finish(id, old_expected);
  timeline_.on_start(id, r.expected_end, take_from(moved, config_));

  ++(demote ? metrics_.demotions : metrics_.promotions);
  (demote ? demoted_bytes_ : promoted_bytes_) += decision.bytes;
  if (options_.audit_cluster) cluster_.audit();
  observe({Transition::Kind::kMigrated, id, &decision, old_dilation});
  request_schedule_pass();
}

void SchedulingSimulation::price(JobRuntime& r, const Job& j,
                                 const Allocation& alloc, SimTime t) {
  // With w = r.work_done the undilated work banked before t and d the
  // dilation on `alloc`:
  //   end          = t + (runtime - w)·d, clamped to start + walltime
  //                  (a kill) when kill_on_walltime is set;
  //   expected_end = t + (walltime - w)·d.
  // At start w = 0 and t = start, so the clamp test
  // start + runtime·d > start + walltime is runtime·d > walltime, and
  // expected_end = start + walltime·d: the start-time formulas exactly.
  r.seg_start = t;
  r.dilation = options_.slowdown.dilation_for(alloc, j);
  const SimTime work_left = j.runtime - min(j.runtime, r.work_done);
  SimTime actual_left = work_left.scaled(r.dilation);
  r.killed = false;
  if (options_.kill_on_walltime && t + actual_left > r.start + j.walltime) {
    actual_left = r.start + j.walltime - t;
    r.killed = true;
  }
  r.end = t + actual_left;
  const SimTime wall_left = j.walltime - min(j.walltime, r.work_done);
  r.expected_end = t + wall_left.scaled(r.dilation);
  r.far_rack = alloc.rack_draw_total();
  r.far_neighbor = alloc.neighbor_draw_total();
  r.far_global = alloc.global_draw_total();
}

bool SchedulingSimulation::pull_one() {
  std::optional<Job> next = source_.next();
  if (!next.has_value()) {
    source_dry_ = true;
    return false;
  }
  // Ids are assigned in pull order; for an EagerTraceSource (sorted, ids =
  // indices) this reproduces the job's own id. Sources are arbitrary code,
  // so each job is validated here; only submit order is the stream's own.
  const JobId id = ring_.end();
  const Job& j = *next;
  const auto fail = [id](const std::string& field, const std::string& what) {
    throw InputError(field, strformat("pulled job %u: ", id) + what);
  };
  try {
    validate(j);
  } catch (const InputError& e) {
    fail(e.field(), e.what());
  }
  if (j.submit < SimTime{0}) {
    fail("submit", strformat("submit = %lld us, must be >= 0", raw(j.submit)));
  }
  if (id > 0 && j.submit < last_pull_submit_) {
    fail("submit", strformat("submit = %lld us, must be >= the previous "
                             "job's submit (%lld us)",
                             raw(j.submit), raw(last_pull_submit_)));
  }
  if (id == 0) first_submit_ = j.submit;
  last_pull_submit_ = j.submit;
  const SimTime submit = j.submit;

  // The ring grows here and nowhere else, so a JobSlot reference is stale
  // only across a pull: handle_submit pulls before it takes one, and no
  // other handler or scheduler pass pulls.
  next->id = id;
  ring_.push(*std::move(next));
  ++live_jobs_;
  ++pending_submissions_;
  engine_.schedule_at(submit, sim::EventClass::kSubmission,
                      [this, id](SimTime) { handle_submit(id); });
  return true;
}

void SchedulingSimulation::refill_submissions() {
  const std::size_t target = options_.submit_lookahead;
  while (!source_dry_ && (target == 0 || pending_submissions_ < target)) {
    if (!pull_one()) break;
  }
}

void SchedulingSimulation::retire_front() {
  while (!ring_.empty()) {
    const JobSlot& s = ring_[ring_.base()];
    const JobRuntime& r = s.rt;
    if (r.state != JobState::kDone && r.state != JobState::kRejected) return;
    metrics_.jobs.push_back(
        {.id = s.job.id,
         .fate = r.state == JobState::kRejected
                     ? JobFate::kRejected
                     : (r.killed ? JobFate::kKilled : JobFate::kCompleted),
         .submit = s.job.submit, .start = r.start, .end = r.end,
         .dilation = r.dilation, .far_rack = r.far_rack,
         .far_neighbor = r.far_neighbor, .far_global = r.far_global,
         .nodes = s.job.nodes, .mem_per_node = s.job.mem_per_node,
         .runtime = s.job.runtime, .sensitivity = s.job.sensitivity,
         .user = s.job.user});
    ring_.pop_front();
  }
}

void SchedulingSimulation::request_schedule_pass() {
  if (pass_pending_) return;
  pass_pending_ = true;
  engine_.schedule_at(engine_.now(), sim::EventClass::kSchedule,
                      [this](SimTime) { run_scheduler_pass(); });
}

void SchedulingSimulation::run_scheduler_pass() {
  pass_pending_ = false;
  ++pass_seq_;
  obs::TraceSink* const sink = options_.sink;
  const bool emit_pass =
      sink != nullptr && options_.trace_detail >= obs::TraceDetail::kSched;
  const bool emit_gauges =
      sink != nullptr && options_.trace_detail == obs::TraceDetail::kFull;
  if (!emit_pass && !emit_gauges && options_.counters == nullptr) {
    scheduler_->schedule(*this);
    return;
  }

  // Snapshot pre-pass state and the policy's cumulative counters so the
  // span carries per-pass deltas. Everything here is observation: the
  // scheduler call in the middle is the same call the untraced path makes.
  obs::PassSpan span{.seq = pass_seq_ - 1, .at = engine_.now(),
                     .kind = scheduler_->name(), .queue_depth = queue_.size(),
                     .running = timeline_.entries().size()};
  const SchedulerStats* stats = scheduler_->stats();
  const SchedulerStats before = stats != nullptr ? *stats : SchedulerStats{};
  // Wall-clock pass timing is a kFull (profiling) feature: two clock reads
  // per pass are the single largest fixed cost of pass spans, so kSched
  // spans carry wall_ns = 0 and stay cheap.
  const bool wall = emit_pass && emit_gauges;
  std::chrono::steady_clock::time_point wall0;
  if (wall) wall0 = std::chrono::steady_clock::now();

  scheduler_->schedule(*this);

  if (emit_pass) {
    // A pass only moves jobs queue -> running; submissions and completions
    // cannot interleave with it at one timestamp (distinct event classes).
    span.started = timeline_.entries().size() - span.running;
    if (stats != nullptr) {
      span.examined =
          static_cast<std::int64_t>(stats->jobs_examined - before.jobs_examined);
      span.plans = static_cast<std::int64_t>(stats->plans_attempted -
                                             before.plans_attempted);
      span.fast_path = stats->fast_passes > before.fast_passes;
    }
    if (wall) {
      span.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - wall0)
                         .count();
    }
    guarded_emit([&] { sink->on_pass(span); });
  }
  if (!emit_gauges && options_.counters == nullptr) return;
  const obs::GaugeSample g{
      .at = engine_.now(), .busy_nodes = cluster_.busy_nodes(),
      .queue_depth = queue_.size(), .running = timeline_.entries().size(),
      .event_queue_size = engine_.pending(),
      .event_id_window = engine_.id_window(),
      .rack_pool_gib = cluster_.rack_pools_used().gib(),
      .global_pool_gib = cluster_.global_pool_used().gib()};
  if (emit_gauges) guarded_emit([&] { sink->on_gauges(g); });
  if (options_.counters == nullptr) return;
  if (pass_gauges_.empty()) {
    for (const char* name : kPassGauges) {
      pass_gauges_.push_back(&options_.counters->gauge(name));
    }
  }
  const double values[] = {
      double(g.queue_depth), double(g.running), double(g.event_queue_size),
      double(g.event_id_window), double(g.busy_nodes), g.rack_pool_gib,
      g.global_pool_gib};
  static_assert(std::size(values) == std::size(kPassGauges));
  for (std::size_t i = 0; i < std::size(values); ++i) {
    pass_gauges_[i]->set(values[i]);
  }
}

void SchedulingSimulation::handle_submit(JobId id) {
  DMSCHED_ASSERT(pending_submissions_ > 0, "submission accounting underflow");
  --pending_submissions_;
  // Refill the look-ahead window before anything else: the next pulled
  // submit is >= this one (nondecreasing input), so every replacement event
  // is queued before any later-time event can pop — which is what makes the
  // bounded window order-equivalent to the full pre-push.
  refill_submissions();

  JobSlot& slot = ring_[id];  // after refill: pull_one may grow the ring
  JobRuntime& r = slot.rt;
  DMSCHED_ASSERT(r.state == JobState::kPending, "double submission");
  if (!kernel_admits(admission_state_, config_, slot.job,
                     options_.placement)) {
    // The job cannot run on this machine shape at all (e.g. footprint above
    // local memory and no pool big enough). Table III counts these.
    r.state = JobState::kRejected;
    r.end = engine_.now();
    --live_jobs_;
    observe({Transition::Kind::kRejected, id});
    retire_front();  // after the last use of r
    return;
  }
  r.state = JobState::kQueued;
  DMSCHED_ASSERT(id >= queue_token_, "queue append out of id order");
  queue_.push_back(id);
  queue_token_ = std::uint64_t{id} + 1;
  observe({Transition::Kind::kQueued, id});
  request_schedule_pass();
}

void SchedulingSimulation::start_job(JobId id, const Allocation& alloc) {
  // The checked removal: the queue holds ascending ids (queue_token_), so a
  // binary search finds the job, and a job that is not waiting aborts here
  // instead of erasing whatever the search returned.
  const auto queued = std::lower_bound(queue_.begin(), queue_.end(), id);
  DMSCHED_ASSERT(queued != queue_.end() && *queued == id,
                 "start_job: job is not in the queue");
  JobSlot& slot = ring_[id];
  JobRuntime& r = slot.rt;
  DMSCHED_ASSERT(alloc.job == id, "start_job: allocation/job id mismatch");
  const Job& j = slot.job;
  DMSCHED_ASSERT(std::cmp_equal(alloc.nodes.size(), j.nodes),
                 "start_job: allocation node count != request");
  DMSCHED_ASSERT(alloc.local_per_node + alloc.far_per_node == j.mem_per_node,
                 "start_job: allocation does not cover the footprint");

  cluster_.commit(alloc);
  queue_.erase(queued);

  r.state = JobState::kRunning;
  r.start = engine_.now();
  r.start_seq = starts_++;
  r.home_rack = config_.rack_of(alloc.nodes.front());
  price(r, j, alloc, r.start);
  timeline_.on_start(id, r.expected_end, take_from(alloc, config_));
  r.completion_event =
      engine_.schedule_at(r.end, sim::EventClass::kCompletion,
                          [this, id](SimTime) { handle_complete(id); });
  observe({Transition::Kind::kStarted, id});
}

void SchedulingSimulation::handle_complete(JobId id) {
  JobRuntime& r = ring_[id].rt;
  DMSCHED_ASSERT(r.state == JobState::kRunning, "completion of a non-running job");
  migration_.on_job_finished(id);
  cluster_.release(id);
  timeline_.on_finish(id, r.expected_end);
  if (options_.audit_cluster) cluster_.audit();
  r.state = JobState::kDone;
  --live_jobs_;
  last_end_ = max(last_end_, engine_.now());
  observe({Transition::Kind::kFinished, id});
  retire_front();  // after the last use of r
  request_schedule_pass();
}

RunMetrics SchedulingSimulation::run() {
  DMSCHED_ASSERT(!run_called_, "run() is single-shot");
  run_called_ = true;

  if (options_.sink != nullptr) {
    guarded_emit([&] {
      options_.sink->on_run_begin(
          {.label = metrics_.label, .cluster_name = config_.name,
           .racks = config_.racks(), .total_nodes = config_.total_nodes,
           .detail = options_.trace_detail});
    });
  }

  // Prime the look-ahead window. An unbounded window (lookahead 0) pulls the
  // whole input here — the historical full pre-push; a bounded one schedules
  // only the first W submissions and handle_submit keeps it topped up.
  refill_submissions();
  if (options_.sample_interval > SimTime{0}) next_sample_ = first_submit_;
  // Nothing has retired yet, so an empty ring means an empty input.
  if (options_.migration.enabled() && !ring_.empty()) {
    engine_.schedule_at(first_submit_ + options_.migration.check_interval,
                        sim::EventClass::kMigration,
                        [this](SimTime) { migration_check(); });
  }

  engine_.run();
  DMSCHED_ASSERT(source_dry_ && pending_submissions_ == 0,
                 "simulation drained with submissions outstanding");
  DMSCHED_ASSERT(live_jobs_ == 0, "simulation drained with live jobs");
  DMSCHED_ASSERT(queue_.empty() && timeline_.entries().empty(),
                 "simulation drained with queued/running jobs");
  DMSCHED_ASSERT(ring_.empty(), "simulation drained with unretired jobs");
  cluster_.audit();
  if (options_.checkpoint_interval > SimTime{0}) {
    // The last transition closed every window through its time. Emit the
    // trailing partial window only if it has any content — a run that ends
    // exactly on a boundary produces no empty extra window.
    const SimTime start{window_index_ * options_.checkpoint_interval.usec()};
    MetricsWindow& w = window_acc_;
    if (window_frontier_ > start || w.jobs_submitted > 0 ||
        w.jobs_started > 0 || w.jobs_finished > 0 || w.jobs_rejected > 0) {
      w.start = start;
      w.end = window_frontier_;
      metrics_.windows.push_back(w);
    }
  }

  // Assemble metrics.
  metrics_.makespan = last_end_;
  const double horizon = last_end_.seconds();
  if (horizon > 0.0) {
    // Time-weighted mean and peak of a usage signal, as capacity fractions.
    const auto fractions = [horizon](const TimeWeightedMean& tw, double cap,
                                     double& mean, double& peak) {
      mean = tw.finish(horizon) / cap;
      peak = tw.peak() / cap;
    };
    metrics_.node_utilization = busy_nodes_tw_.finish(horizon) /
                                static_cast<double>(config_.total_nodes);
    const double rack_capacity =
        static_cast<double>(topology_.rack_tier_capacity().count());
    if (rack_capacity > 0.0) {
      fractions(rack_pool_tw_, rack_capacity, metrics_.rack_pool_utilization,
                metrics_.rack_pool_peak);
      metrics_.rack_pool_busiest_peak =
          ratio(busiest_rack_pool_peak_, config_.pool_per_rack);
    }
    const double global_capacity =
        static_cast<double>(topology_.global_tier_capacity().count());
    if (global_capacity > 0.0) {
      fractions(global_pool_tw_, global_capacity,
                metrics_.global_pool_utilization, metrics_.global_pool_peak);
    }
    if (config_.has_gpus()) {
      fractions(gpu_tw_, static_cast<double>(config_.total_gpus()),
                metrics_.gpu_utilization, metrics_.gpu_peak);
    }
    if (config_.has_burst_buffer()) {
      fractions(bb_tw_, static_cast<double>(config_.bb_capacity.count()),
                metrics_.bb_utilization, metrics_.bb_peak);
    }
  }
  metrics_.demoted_gib = demoted_bytes_.gib();
  metrics_.promoted_gib = promoted_bytes_.gib();
  metrics_.finalize();

  if (options_.sink != nullptr) {
    guarded_emit([&] { options_.sink->on_run_end(metrics_.makespan); });
  }
  fill_counters();

  return std::move(metrics_);
}

void SchedulingSimulation::fill_counters() {
  if (options_.counters == nullptr) return;
  obs::CounterRegistry& reg = *options_.counters;
  reg.counter("events_processed").add(engine_.events_processed());
  reg.counter("sched_passes").add(pass_seq_);
  reg.counter("jobs_submitted").add(metrics_.jobs.size());
  reg.counter("jobs_completed").add(metrics_.completed);
  reg.counter("jobs_killed").add(metrics_.killed);
  reg.counter("jobs_rejected").add(metrics_.rejected);
  if (options_.migration.enabled()) {
    // Gated on the knob so a migration-off counters dump stays identical to
    // the pre-migration format.
    reg.counter("migrations_demoted").add(metrics_.demotions);
    reg.counter("migrations_promoted").add(metrics_.promotions);
  }
  if (const SchedulerStats* stats = scheduler_->stats()) {
    reg.counter("sched_fast_passes").add(stats->fast_passes);
    reg.counter("sched_jobs_examined").add(stats->jobs_examined);
    reg.counter("sched_plans_attempted").add(stats->plans_attempted);
  }
  reg.gauge("event_id_window_peak")
      .set(static_cast<double>(engine_.peak_id_window()));
}

}  // namespace dmsched
