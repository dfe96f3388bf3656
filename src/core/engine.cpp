#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/assert.hpp"
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
long long raw(Bytes b) { return static_cast<long long>(b.count()); }

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

void SchedulingSimulation::JobList::push_back(JobRing& ring, JobId job) {
  JobRuntime& r = ring[job].rt;
  DMSCHED_ASSERT(r.list == JobListId::kNone,
                 "JobList::push_back: job already linked into a list");
  r.list = id;
  r.list_prev = tail;
  r.list_next = kInvalidJobId;
  if (tail != kInvalidJobId) {
    ring[tail].rt.list_next = job;
  } else {
    head = job;
  }
  tail = job;
  ++count;
}

void SchedulingSimulation::JobList::erase(JobRing& ring, JobId job) {
  JobRuntime& r = ring[job].rt;
  // The checked removal: membership is asserted via the job's list slot, so
  // a bookkeeping bug aborts here instead of silently corrupting the list
  // (the old vector path erased whatever std::find returned, end() included).
  DMSCHED_ASSERT(r.list == id, "JobList::erase: job is not in this list");
  DMSCHED_ASSERT(count > 0, "JobList::erase: list count out of sync");
  if (r.list_prev != kInvalidJobId) {
    ring[r.list_prev].rt.list_next = r.list_next;
  } else {
    head = r.list_next;
  }
  if (r.list_next != kInvalidJobId) {
    ring[r.list_next].rt.list_prev = r.list_prev;
  } else {
    tail = r.list_prev;
  }
  r.list_prev = kInvalidJobId;
  r.list_next = kInvalidJobId;
  r.list = JobListId::kNone;
  --count;
}

std::vector<JobId> SchedulingSimulation::JobList::to_vector(
    const JobRing& ring) const {
  std::vector<JobId> ids;
  ids.reserve(count);
  for (JobId j = head; j != kInvalidJobId; j = ring[j].rt.list_next) {
    ids.push_back(j);
  }
  DMSCHED_ASSERT(ids.size() == count, "JobList: link/count mismatch");
  return ids;
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
  // Look-ahead 0 pulls every job before the first event, so the advisory
  // size fits the ring exactly; a bounded window's ring doubles as needed.
  const std::size_t expect = source_.size_hint().value_or(0);
  if (options_.submit_lookahead == 0) ring_.reserve(expect);
  metrics_.jobs.reserve(expect);
  metrics_.label = std::string(scheduler_->name()) + "/" + config_.name;
}

SimTime SchedulingSimulation::now() const { return engine_.now(); }

const Cluster& SchedulingSimulation::cluster() const { return cluster_; }

const Job& SchedulingSimulation::job(JobId id) const { return ring_[id].job; }

std::vector<JobId> SchedulingSimulation::queued_jobs() const {
  // The list is already in FCFS order — see queue_token_ — so only the
  // re-ranking orders sort.
  std::vector<JobId> ids = queue_.to_vector(ring_);
  const QueueOrder order = options_.queue_order;
  if (order != QueueOrder::kFcfs) {
    const SimTime now = engine_.now();
    std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
      return queue_precedes(ring_[a].job, ring_[b].job, order, now);
    });
  }
  return ids;
}

std::vector<RunningJob> SchedulingSimulation::running_jobs() const {
  std::vector<RunningJob> out;
  out.reserve(running_.size());
  for (JobId id = running_.head; id != kInvalidJobId;
       id = ring_[id].rt.list_next) {
    const JobRuntime& r = ring_[id].rt;
    out.push_back({id, r.expected_end, r.take});
  }
  return out;
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
  // Ids rise from head to tail, so the jobs appended since `epoch` are the
  // list's suffix of ids >= epoch.
  std::vector<JobId> out;
  for (JobId j = queue_.tail; j != kInvalidJobId && j >= epoch;
       j = ring_[j].rt.list_prev) {
    out.push_back(j);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void SchedulingSimulation::record_usage_change() {
  const double t = engine_.now().seconds();
  busy_nodes_tw_.record(t, static_cast<double>(cluster_.busy_nodes()));
  rack_pool_tw_.record(t, static_cast<double>(cluster_.rack_pools_used().count()));
  global_pool_tw_.record(t, static_cast<double>(cluster_.global_pool_used().count()));
  if (topology_.has_rack_tier()) {
    busiest_rack_pool_peak_ =
        max(busiest_rack_pool_peak_, cluster_.busiest_rack_pool_used());
  }
  if (config_.has_gpus()) {
    gpu_tw_.record(t, static_cast<double>(cluster_.gpus_used_total()));
  }
  if (config_.has_burst_buffer()) {
    bb_tw_.record(t, static_cast<double>(cluster_.bb_used().count()));
  }
}

void SchedulingSimulation::sample_series() {
  TimeSample s;
  s.time = engine_.now();
  s.busy_nodes = cluster_.busy_nodes();
  s.queued_jobs = static_cast<std::int32_t>(queue_.size());
  s.running_jobs = static_cast<std::int32_t>(running_.size());
  s.rack_pool_used = cluster_.rack_pools_used();
  s.global_pool_used = cluster_.global_pool_used();
  metrics_.series.push_back(s);
  if (live_jobs_ > 0) {
    engine_.schedule_in(options_.sample_interval, sim::EventClass::kTimer,
                        [this](SimTime) { sample_series(); });
  }
}

void SchedulingSimulation::migration_check() {
  // Plan over the running list in insertion order — the same deterministic
  // order every other per-job walk uses.
  const std::vector<MigrationDecision> moves =
      migration_.plan(cluster_, running_.to_vector(ring_));
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
  if (decision.kind == MigrationKind::kDemote) {
    if (cluster_.global_pool_free() < decision.bytes) return;
  } else {
    const Bytes pool_free =
        config_.pool_per_rack - cluster_.pool_used(decision.rack);
    if (pool_free < decision.bytes) return;
  }

  window_advance();
  const SimTime t = engine_.now();
  digest_fold('M');
  digest_fold(id);
  digest_fold(static_cast<std::uint64_t>(t.usec()));
  digest_fold(static_cast<std::uint64_t>(decision.kind));
  digest_fold(static_cast<std::uint64_t>(decision.bytes.count()));

  std::vector<PoolDraw> new_draws = rewrite_draws(*alloc, decision);
  cluster_.retier(id, std::move(new_draws));
  const Allocation* updated = cluster_.find_allocation(id);
  const Job& j = job(id);
  const double old_dilation = r.dilation;
  const double new_dilation = options_.slowdown.dilation_for(*updated, j);

  // Close the current dilation segment: bank the undilated work it covered,
  // then reprice the remaining work at the new rate. The completion event
  // moves accordingly (strictly later for a demotion, earlier for a
  // promotion — never before now, because t < r.end while we are here).
  r.work_done += (t - r.seg_start).scaled(1.0 / old_dilation);
  r.seg_start = t;
  const SimTime work_left = j.runtime - min(j.runtime, r.work_done);
  SimTime actual_left = work_left.scaled(new_dilation);
  r.killed = false;
  if (options_.kill_on_walltime && t + actual_left > r.start + j.walltime) {
    actual_left = r.start + j.walltime - t;
    r.killed = true;
  }
  r.end = t + actual_left;
  const SimTime old_expected = r.expected_end;
  const SimTime wall_left = j.walltime - min(j.walltime, r.work_done);
  r.expected_end = t + wall_left.scaled(new_dilation);

  const bool cancelled = engine_.cancel(r.completion_event);
  DMSCHED_ASSERT(cancelled, "apply_migration: completion already fired");
  r.completion_event =
      engine_.schedule_at(r.end, sim::EventClass::kCompletion,
                          [this, id](SimTime) { handle_complete(id); });
  // Refresh the availability timeline: the planning bound and the counted
  // take both changed, so incremental passes must see a version bump.
  timeline_.on_finish(id, old_expected);
  r.dilation = new_dilation;
  r.take = take_from(*updated, config_);
  r.far_rack = updated->rack_draw_total();
  r.far_neighbor = updated->neighbor_draw_total();
  r.far_global = updated->global_draw_total();
  timeline_.on_start(id, r.expected_end, r.take);

  if (decision.kind == MigrationKind::kDemote) {
    ++demotions_;
    demoted_bytes_ += decision.bytes;
  } else {
    ++promotions_;
    promoted_bytes_ += decision.bytes;
  }
  ++window_acc_.jobs_migrated;
  window_acc_.migrated_gib += decision.bytes.gib();
  if (options_.sink != nullptr) {
    obs::JobMigrated ev;
    ev.job = id;
    ev.at = t;
    ev.rack = decision.rack;
    ev.demote = decision.kind == MigrationKind::kDemote;
    ev.gib = decision.bytes.gib();
    ev.dilation_before = old_dilation;
    ev.dilation_after = new_dilation;
    guarded_emit([&] { options_.sink->on_job_migrated(ev); });
  }
  if (options_.audit_cluster) cluster_.audit();
  record_usage_change();
  request_schedule_pass();
}

bool SchedulingSimulation::pull_one() {
  std::optional<Job> next = source_.next();
  if (!next.has_value()) {
    source_dry_ = true;
    return false;
  }
  // Ids are assigned in pull order; for an EagerTraceSource (sorted, ids =
  // indices) this reproduces the job's own id. Sources are arbitrary code,
  // so the fields Trace::make enforces are re-checked at this boundary.
  const JobId id = ring_.end();
  const Job& j = *next;
  const auto fail = [id](const std::string& what) {
    throw std::invalid_argument(strformat("pulled job %u: ", id) + what);
  };
  if (j.nodes <= 0) fail(strformat("nodes = %d, must be > 0", j.nodes));
  if (j.runtime <= SimTime{0}) {
    fail(strformat("runtime = %lld us, must be > 0", raw(j.runtime)));
  }
  if (j.walltime < j.runtime) {
    fail(strformat("walltime = %lld us, must be >= runtime (%lld us)",
                   raw(j.walltime), raw(j.runtime)));
  }
  if (j.mem_per_node < Bytes{0}) {
    fail(strformat("mem_per_node = %lld B, must be >= 0", raw(j.mem_per_node)));
  }
  if (j.gpus_per_node < 0) {
    fail(strformat("gpus_per_node = %d, must be >= 0", j.gpus_per_node));
  }
  if (j.bb_bytes < Bytes{0}) {
    fail(strformat("bb_bytes = %lld B, must be >= 0", raw(j.bb_bytes)));
  }
  if (id > 0 && j.submit < last_pull_submit_) {
    fail(strformat("submit = %lld us, must be >= the previous job's submit "
                   "(%lld us)",
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
    JobOutcome o;
    o.id = s.job.id;
    o.fate = r.state == JobState::kRejected
                 ? JobFate::kRejected
                 : (r.killed ? JobFate::kKilled : JobFate::kCompleted);
    o.submit = s.job.submit;
    o.start = r.start;
    o.end = r.end;
    o.dilation = r.dilation;
    o.far_rack = r.far_rack;
    o.far_neighbor = r.far_neighbor;
    o.far_global = r.far_global;
    o.nodes = s.job.nodes;
    o.mem_per_node = s.job.mem_per_node;
    o.runtime = s.job.runtime;
    o.sensitivity = s.job.sensitivity;
    o.user = s.job.user;
    metrics_.jobs.push_back(o);
    ring_.pop_front();
  }
}

void SchedulingSimulation::window_integrate(SimTime from, SimTime to) {
  const double dt = (to - from).seconds();
  if (dt <= 0.0) return;
  window_acc_.busy_node_seconds +=
      static_cast<double>(cluster_.busy_nodes()) * dt;
  window_acc_.queued_job_seconds += static_cast<double>(queue_.size()) * dt;
  window_acc_.running_job_seconds +=
      static_cast<double>(running_.size()) * dt;
  window_acc_.rack_pool_gib_seconds += cluster_.rack_pools_used().gib() * dt;
  window_acc_.global_pool_gib_seconds +=
      cluster_.global_pool_used().gib() * dt;
}

void SchedulingSimulation::window_close_through(SimTime t) {
  const SimTime w = options_.checkpoint_interval;
  for (;;) {
    const SimTime boundary{(window_index_ + 1) * w.usec()};
    if (boundary > t) break;
    window_integrate(window_frontier_, boundary);
    window_acc_.start = SimTime{window_index_ * w.usec()};
    window_acc_.end = boundary;
    metrics_.windows.push_back(window_acc_);
    window_acc_ = MetricsWindow{};
    window_frontier_ = boundary;
    ++window_index_;
  }
  window_integrate(window_frontier_, t);
  window_frontier_ = t;
}

void SchedulingSimulation::window_advance() {
  // State is integrated with pre-mutation values, which is why every
  // handler calls this first.
  if (options_.checkpoint_interval <= SimTime{0}) return;
  window_close_through(engine_.now());
}

void SchedulingSimulation::flush_final_window() {
  const SimTime w = options_.checkpoint_interval;
  if (w <= SimTime{0}) return;
  const SimTime end = max(last_end_, window_frontier_);
  window_close_through(end);
  // The trailing partial window is emitted only if it has any content —
  // a run that ends exactly on a boundary produces no empty extra window.
  const SimTime start{window_index_ * w.usec()};
  const bool has_counts =
      window_acc_.jobs_submitted > 0 || window_acc_.jobs_started > 0 ||
      window_acc_.jobs_finished > 0 || window_acc_.jobs_rejected > 0;
  if (end > start || has_counts) {
    window_acc_.start = start;
    window_acc_.end = end;
    metrics_.windows.push_back(window_acc_);
    window_acc_ = MetricsWindow{};
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
  const bool want_gauges =
      (sink != nullptr && options_.trace_detail == obs::TraceDetail::kFull) ||
      options_.counters != nullptr;
  if (!emit_pass && !want_gauges) {
    scheduler_->schedule(*this);
    return;
  }

  // Snapshot pre-pass state and the policy's cumulative counters so the
  // span carries per-pass deltas. Everything here is observation: the
  // scheduler call in the middle is the same call the untraced path makes.
  const std::size_t depth_before = queue_.size();
  const std::size_t running_before = running_.size();
  const SchedulerStats* stats = scheduler_->stats();
  SchedulerStats before;
  if (stats != nullptr) before = *stats;
  // Wall-clock pass timing is a kFull (profiling) feature: two clock reads
  // per pass are the single largest fixed cost of pass spans, so kSched
  // spans carry wall_ns = 0 and stay cheap.
  const bool wall = emit_pass &&
                    options_.trace_detail == obs::TraceDetail::kFull;
  std::chrono::steady_clock::time_point wall0;
  if (wall) wall0 = std::chrono::steady_clock::now();

  scheduler_->schedule(*this);

  if (emit_pass) {
    obs::PassSpan span;
    span.seq = pass_seq_ - 1;
    span.at = engine_.now();
    span.kind = scheduler_->name();
    span.queue_depth = depth_before;
    span.running = running_before;
    // A pass only moves jobs queue -> running; submissions and completions
    // cannot interleave with it at one timestamp (distinct event classes).
    span.started = running_.size() - running_before;
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
  if (want_gauges) {
    obs::GaugeSample g;
    g.at = engine_.now();
    g.busy_nodes = cluster_.busy_nodes();
    g.queue_depth = queue_.size();
    g.running = running_.size();
    g.event_queue_size = pending_events();
    g.event_id_window = live_event_id_window();
    g.rack_pool_gib = cluster_.rack_pools_used().gib();
    g.global_pool_gib = cluster_.global_pool_used().gib();
    if (sink != nullptr &&
        options_.trace_detail == obs::TraceDetail::kFull) {
      guarded_emit([&] { sink->on_gauges(g); });
    }
    if (options_.counters != nullptr) {
      if (gauges_.queue_depth == nullptr) {
        // Resolve once per run: get-or-create returns deque-stable slots.
        obs::CounterRegistry& reg = *options_.counters;
        gauges_.queue_depth = &reg.gauge("queue_depth");
        gauges_.running_jobs = &reg.gauge("running_jobs");
        gauges_.event_queue_size = &reg.gauge("event_queue_size");
        gauges_.event_id_window = &reg.gauge("event_id_window");
        gauges_.busy_nodes = &reg.gauge("busy_nodes");
        gauges_.rack_pool_gib = &reg.gauge("rack_pool_gib");
        gauges_.global_pool_gib = &reg.gauge("global_pool_gib");
      }
      gauges_.queue_depth->set(static_cast<double>(g.queue_depth));
      gauges_.running_jobs->set(static_cast<double>(g.running));
      gauges_.event_queue_size->set(static_cast<double>(g.event_queue_size));
      gauges_.event_id_window->set(static_cast<double>(g.event_id_window));
      gauges_.busy_nodes->set(static_cast<double>(g.busy_nodes));
      gauges_.rack_pool_gib->set(g.rack_pool_gib);
      gauges_.global_pool_gib->set(g.global_pool_gib);
    }
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
  window_advance();
  digest_fold('S');
  digest_fold(id);
  digest_fold(static_cast<std::uint64_t>(engine_.now().usec()));
  ++window_acc_.jobs_submitted;

  JobSlot& slot = ring_[id];  // after refill: pull_one may grow the ring
  JobRuntime& r = slot.rt;
  DMSCHED_ASSERT(r.state == JobState::kPending, "double submission");
  const Job& j = slot.job;
  if (!compute_take(admission_state_, config_, j, options_.placement,
                    admission_plan_)) {
    // The job cannot run on this machine shape at all (e.g. footprint above
    // local memory and no pool big enough). Table III counts these.
    r.state = JobState::kRejected;
    r.end = engine_.now();
    --live_jobs_;
    ++window_acc_.jobs_rejected;
    if (options_.sink != nullptr) {
      obs::JobRejected ev;
      ev.job = id;
      ev.at = engine_.now();
      guarded_emit([&] { options_.sink->on_job_rejected(ev); });
    }
    retire_front();  // after the last use of r and j
    return;
  }
  r.state = JobState::kQueued;
  DMSCHED_ASSERT(id >= queue_token_, "queue append out of id order");
  queue_.push_back(ring_, id);
  queue_token_ = std::uint64_t{id} + 1;
  if (options_.sink != nullptr) {
    obs::JobQueued ev;
    ev.job = id;
    ev.submit = engine_.now();
    ev.nodes = j.nodes;
    ev.mem_per_node_gib = j.mem_per_node.gib();
    guarded_emit([&] { options_.sink->on_job_queued(ev); });
  }
  request_schedule_pass();
}

void SchedulingSimulation::start_job(JobId id, const Allocation& alloc) {
  window_advance();
  digest_fold('R');
  digest_fold(id);
  digest_fold(static_cast<std::uint64_t>(engine_.now().usec()));
  ++window_acc_.jobs_started;

  JobSlot& slot = ring_[id];
  JobRuntime& r = slot.rt;
  DMSCHED_ASSERT(r.state == JobState::kQueued,
                 "start_job: job is not waiting");
  DMSCHED_ASSERT(alloc.job == id, "start_job: allocation/job id mismatch");
  const Job& j = slot.job;
  DMSCHED_ASSERT(std::cmp_equal(alloc.nodes.size(), j.nodes),
                 "start_job: allocation node count != request");
  DMSCHED_ASSERT(alloc.local_per_node + alloc.far_per_node == j.mem_per_node,
                 "start_job: allocation does not cover the footprint");

  cluster_.commit(alloc);
  queue_.erase(ring_, id);
  running_.push_back(ring_, id);

  r.state = JobState::kRunning;
  r.start = engine_.now();
  r.seg_start = r.start;
  r.dilation = options_.slowdown.dilation_for(alloc, j);
  r.take = take_from(alloc, config_);
  r.far_rack = alloc.rack_draw_total();
  r.far_neighbor = alloc.neighbor_draw_total();
  r.far_global = alloc.global_draw_total();
  r.home_rack = config_.rack_of(alloc.nodes.front());

  SimTime actual = j.runtime.scaled(r.dilation);
  if (options_.kill_on_walltime && actual > j.walltime) {
    actual = j.walltime;
    r.killed = true;
  }
  r.end = engine_.now() + actual;
  r.expected_end = engine_.now() + j.walltime.scaled(r.dilation);
  timeline_.on_start(id, r.expected_end, r.take);
  r.completion_event =
      engine_.schedule_at(r.end, sim::EventClass::kCompletion,
                          [this, id](SimTime) { handle_complete(id); });
  if (options_.sink != nullptr) {
    obs::JobStarted ev;
    ev.job = id;
    ev.submit = j.submit;
    ev.start = r.start;
    ev.rack = r.home_rack;
    ev.nodes = j.nodes;
    ev.dilation = r.dilation;
    ev.far_rack_gib = r.far_rack.gib();
    ev.far_neighbor_gib = r.far_neighbor.gib();
    ev.far_global_gib = r.far_global.gib();
    guarded_emit([&] { options_.sink->on_job_started(ev); });
  }
  record_usage_change();
}

void SchedulingSimulation::handle_complete(JobId id) {
  window_advance();
  digest_fold('C');
  digest_fold(id);
  digest_fold(static_cast<std::uint64_t>(engine_.now().usec()));
  ++window_acc_.jobs_finished;

  JobRuntime& r = ring_[id].rt;
  DMSCHED_ASSERT(r.state == JobState::kRunning, "completion of a non-running job");
  migration_.on_job_finished(id);
  cluster_.release(id);
  timeline_.on_finish(id, r.expected_end);
  if (options_.audit_cluster) cluster_.audit();
  running_.erase(ring_, id);
  r.state = JobState::kDone;
  --live_jobs_;
  last_end_ = max(last_end_, engine_.now());
  if (options_.sink != nullptr) {
    obs::JobFinished ev;
    ev.job = id;
    ev.start = r.start;
    ev.end = engine_.now();
    ev.rack = r.home_rack;
    ev.killed = r.killed;
    guarded_emit([&] { options_.sink->on_job_finished(ev); });
  }
  retire_front();  // after the last use of r
  record_usage_change();
  request_schedule_pass();
}

RunMetrics SchedulingSimulation::run() {
  DMSCHED_ASSERT(!run_called_, "run() is single-shot");
  run_called_ = true;

  if (options_.sink != nullptr) {
    obs::RunInfo info;
    info.label = metrics_.label;
    info.cluster_name = config_.name;
    info.racks = config_.racks();
    info.total_nodes = config_.total_nodes;
    info.detail = options_.trace_detail;
    guarded_emit([&] { options_.sink->on_run_begin(info); });
  }

  // Prime the look-ahead window. An unbounded window (lookahead 0) pulls the
  // whole input here — the historical full pre-push; a bounded one schedules
  // only the first W submissions and handle_submit keeps it topped up.
  refill_submissions();
  record_usage_change();
  // Nothing has retired yet, so an empty ring means an empty input.
  if (options_.sample_interval > SimTime{0} && !ring_.empty()) {
    engine_.schedule_at(first_submit_, sim::EventClass::kTimer,
                        [this](SimTime) { sample_series(); });
  }
  if (options_.migration.enabled() && !ring_.empty()) {
    engine_.schedule_at(first_submit_ + options_.migration.check_interval,
                        sim::EventClass::kMigration,
                        [this](SimTime) { migration_check(); });
  }

  engine_.run();
  DMSCHED_ASSERT(source_dry_ && pending_submissions_ == 0,
                 "simulation drained with submissions outstanding");
  DMSCHED_ASSERT(live_jobs_ == 0, "simulation drained with live jobs");
  DMSCHED_ASSERT(queue_.empty() && running_.empty(),
                 "simulation drained with queued/running jobs");
  DMSCHED_ASSERT(ring_.empty(), "simulation drained with unretired jobs");
  cluster_.audit();
  flush_final_window();

  // Assemble metrics.
  metrics_.makespan = last_end_;
  const double horizon = last_end_.seconds();
  if (horizon > 0.0) {
    metrics_.node_utilization = busy_nodes_tw_.finish(horizon) /
                                static_cast<double>(config_.total_nodes);
    const double rack_capacity =
        static_cast<double>(topology_.rack_tier_capacity().count());
    if (rack_capacity > 0.0) {
      metrics_.rack_pool_utilization =
          rack_pool_tw_.finish(horizon) / rack_capacity;
      metrics_.rack_pool_peak = rack_pool_tw_.peak() / rack_capacity;
      metrics_.rack_pool_busiest_peak =
          ratio(busiest_rack_pool_peak_, config_.pool_per_rack);
    }
    const double global_capacity =
        static_cast<double>(topology_.global_tier_capacity().count());
    if (global_capacity > 0.0) {
      metrics_.global_pool_utilization =
          global_pool_tw_.finish(horizon) / global_capacity;
      metrics_.global_pool_peak = global_pool_tw_.peak() / global_capacity;
    }
    if (config_.has_gpus()) {
      const double gpu_capacity = static_cast<double>(config_.total_gpus());
      metrics_.gpu_utilization = gpu_tw_.finish(horizon) / gpu_capacity;
      metrics_.gpu_peak = gpu_tw_.peak() / gpu_capacity;
    }
    if (config_.has_burst_buffer()) {
      const double bb_capacity =
          static_cast<double>(config_.bb_capacity.count());
      metrics_.bb_utilization = bb_tw_.finish(horizon) / bb_capacity;
      metrics_.bb_peak = bb_tw_.peak() / bb_capacity;
    }
  }
  metrics_.demotions = demotions_;
  metrics_.promotions = promotions_;
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
  std::uint64_t completed = 0;
  std::uint64_t killed = 0;
  std::uint64_t rejected = 0;
  for (const JobOutcome& o : metrics_.jobs) {
    switch (o.fate) {
      case JobFate::kCompleted:
        ++completed;
        break;
      case JobFate::kKilled:
        ++killed;
        break;
      case JobFate::kRejected:
        ++rejected;
        break;
    }
  }
  reg.counter("jobs_completed").add(completed);
  reg.counter("jobs_killed").add(killed);
  reg.counter("jobs_rejected").add(rejected);
  if (options_.migration.enabled()) {
    // Gated on the knob so a migration-off counters dump stays identical to
    // the pre-migration format.
    reg.counter("migrations_demoted").add(demotions_);
    reg.counter("migrations_promoted").add(promotions_);
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
