// A hand-driven SchedContext for scheduler unit tests: set up the machine,
// queue, and running set explicitly, call schedule(), inspect what started.
#pragma once

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "sched/profile.hpp"
#include "sched/queue_policy.hpp"
#include "sched/scheduler.hpp"

namespace dmsched::testing {

class FakeContext final : public SchedContext {
 public:
  FakeContext(ClusterConfig config, std::vector<Job> jobs)
      : config_(std::move(config)),
        jobs_(std::move(jobs)),
        cluster_(config_),
        topology_(config_) {}

  // --- test setup -----------------------------------------------------------
  void set_now(SimTime t) { now_ = t; }
  void set_placement(PlacementPolicy p) { placement_ = p; }
  void set_slowdown(SlowdownModel m) { slowdown_ = m; }
  void set_queue_order(QueueOrder order) { order_ = order; }

  /// Put a job in the waiting queue. Under FCFS, appends must come in
  /// (submit, id) order, as the engine's do: the incremental passes read
  /// new arrivals in append order.
  void enqueue(JobId id) {
    DMSCHED_ASSERT(order_ != QueueOrder::kFcfs || append_log_.empty() ||
                       queue_precedes(job(append_log_.back()), job(id),
                                      QueueOrder::kFcfs, now_),
                   "FakeContext::enqueue: FCFS appends must arrive in "
                   "(submit, id) order");
    queue_.push_back(id);
    append_log_.push_back(id);
  }

  /// Start a job directly (bypassing any scheduler) so tests can set up a
  /// running set. Uses the context's placement policy.
  void force_run(JobId id) {
    const auto alloc = plan_start(cluster_, job(id), placement_);
    DMSCHED_ASSERT(alloc.has_value(), "force_run: job does not fit");
    admit(id, *alloc);
  }

  // --- observations ----------------------------------------------------------
  /// Jobs started through start_job, in start order.
  [[nodiscard]] const std::vector<JobId>& started() const { return started_; }
  [[nodiscard]] bool was_started(JobId id) const {
    return std::find(started_.begin(), started_.end(), id) != started_.end();
  }
  /// The timeline's record of a running job, or nullptr. The pointer dies
  /// at the next start or finish.
  [[nodiscard]] const RunningJob* running_record(JobId id) const {
    for (const RunningJob& r : timeline_.entries()) {
      if (r.id == id) return &r;
    }
    return nullptr;
  }

  /// Finish a running job: release resources, drop from the running set.
  void finish(JobId id) {
    const RunningJob* r = running_record(id);
    DMSCHED_ASSERT(r != nullptr, "finish: job is not running");
    cluster_.release(id);
    timeline_.on_finish(id, r->expected_end);
  }

  // --- SchedContext ----------------------------------------------------------
  [[nodiscard]] SimTime now() const override { return now_; }
  [[nodiscard]] const Cluster& cluster() const override { return cluster_; }
  [[nodiscard]] const Job& job(JobId id) const override {
    // FakeContext is an *eager* context: it holds the whole job vector and
    // equates JobId with position (unlike the engine, whose ring retains
    // only live jobs). Fail loudly if a test hands us an id outside the
    // materialized vector instead of reading a stranger's memory.
    DMSCHED_ASSERT(id < jobs_.size(),
                   "FakeContext::job: id out of range — this context is "
                   "eager-only and indexes jobs by position");
    return jobs_[id];
  }
  [[nodiscard]] std::vector<JobId> queued_jobs() const override {
    std::vector<JobId> ids = queue_;
    std::sort(ids.begin(), ids.end(), [this](JobId a, JobId b) {
      return queue_precedes(job(a), job(b), order_, now_);
    });
    return ids;
  }
  [[nodiscard]] PlacementPolicy placement() const override {
    return placement_;
  }
  [[nodiscard]] const SlowdownModel& slowdown() const override {
    return slowdown_;
  }
  [[nodiscard]] const Topology& topology() const override {
    return topology_;
  }
  void start_job(JobId id, const Allocation& alloc) override {
    const auto it = std::find(queue_.begin(), queue_.end(), id);
    DMSCHED_ASSERT(it != queue_.end(), "start_job: not queued");
    queue_.erase(it);
    admit(id, alloc);
    started_.push_back(id);
  }

  [[nodiscard]] const AvailabilityTimeline* timeline() const override {
    return &timeline_;
  }
  [[nodiscard]] bool queue_order_stable() const override {
    return order_ == QueueOrder::kFcfs;
  }
  [[nodiscard]] std::uint64_t queue_tail_epoch() const override {
    return append_log_.size();
  }
  [[nodiscard]] std::vector<JobId> queued_jobs_after(
      std::uint64_t epoch) const override {
    std::vector<JobId> out;
    for (std::size_t i = static_cast<std::size_t>(epoch);
         i < append_log_.size(); ++i) {
      const JobId id = append_log_[i];
      if (std::find(queue_.begin(), queue_.end(), id) != queue_.end()) {
        out.push_back(id);
      }
    }
    return out;
  }

 private:
  void admit(JobId id, const Allocation& alloc) {
    cluster_.commit(alloc);
    const Job& j = job(id);
    const double dilation = slowdown_.dilation_for(alloc, j);
    timeline_.on_start(id, now_ + j.walltime.scaled(dilation),
                       take_from(alloc, config_));
  }

  ClusterConfig config_;
  std::vector<Job> jobs_;
  Cluster cluster_;
  Topology topology_;
  SimTime now_{};
  PlacementPolicy placement_{NodeSelection::kFirstFit,
                             PoolRouting::kRackThenGlobal};
  SlowdownModel slowdown_{};
  QueueOrder order_ = QueueOrder::kFcfs;
  AvailabilityTimeline timeline_{config_};
  std::vector<JobId> queue_;
  std::vector<JobId> append_log_;
  std::vector<JobId> started_;
};

/// Scoped simulated-time session around a FakeContext (à la a factory-context
/// fixture): owns the context, advances now() monotonically, and re-runs
/// Cluster::audit() after every advance *and* on teardown, so incremental
/// bookkeeping that drifts from the occupancy map fails fast. (The audit
/// checks ledger *consistency*, not emptiness — a test that must end drained
/// still asserts free_nodes_total()/pool usage explicitly, as
/// run_lifecycle_scenario does.)
///
///   SimSession s(machine(16, 64, /*rack_pool=*/32), {job(0), job(1)});
///   s->enqueue(0);
///   s.run_pass(*scheduler);
///   s.advance_h(1.0);        // audit happens here
///   s->finish(0);
///                             // ...and again when s goes out of scope
class SimSession {
 public:
  SimSession(ClusterConfig config, std::vector<Job> jobs)
      : ctx_(std::move(config), std::move(jobs)) {}

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  ~SimSession() { ctx_.cluster().audit(); }

  /// Move simulated time forward by `dt` (must be non-negative) and audit.
  void advance(SimTime dt) {
    DMSCHED_ASSERT(dt >= SimTime{0}, "SimSession: time must move forward");
    ctx_.set_now(ctx_.now() + dt);
    ctx_.cluster().audit();
  }
  void advance_h(double h) { advance(seconds(h * 3600.0)); }
  void advance_s(double s) { advance(seconds(s)); }

  /// Run one scheduling pass at the current time.
  void run_pass(Scheduler& scheduler) { scheduler.schedule(ctx_); }

  [[nodiscard]] FakeContext& ctx() { return ctx_; }
  FakeContext* operator->() { return &ctx_; }

 private:
  FakeContext ctx_;
};

}  // namespace dmsched::testing
