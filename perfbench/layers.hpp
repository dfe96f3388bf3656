// Per-layer attribution, timed from outside the simulator.
//
// Every layer is timed at a public seam the engine already calls, so the
// simulator carries no instrumentation of its own:
//  - TimedScheduler wraps the policy built by make_scheduler(): one `pass`
//    span per schedule() call, then a `probe` span (outside the pass) that
//    times compute_take(snapshot(cluster), ...) for the queue head;
//  - TimedContext is the SchedContext handed to the real schedule(): it
//    times start_job (`start`) and the queue/running vector builds
//    (`query`) and forwards everything else untimed;
//  - TimedSource wraps the job input: one `pull` span per next().
// The decorators forward every incremental-pass hook (timeline,
// queue_order_stable, queue_tail_epoch, queued_jobs_after). One that
// dropped a hook would keep the event digest but silently disable the
// schedulers' fast paths, and so measure a slower program; the harness
// checks SchedulerStats against an undecorated run to catch that.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sched/scheduler.hpp"
#include "workload/trace_source.hpp"

namespace perfbench {

/// Span kinds. A `run` span covers one simulation (construction, run,
/// teardown); `pass`, `pull` and `probe` nest in it; `start` and `query`
/// nest in `pass`.
enum class Layer : std::uint8_t { kRun, kPass, kStart, kQuery, kPull, kProbe };
inline constexpr std::size_t kLayerCount = 6;
[[nodiscard]] const char* to_string(Layer layer);

[[nodiscard]] std::int64_t now_ns();

/// One closed span; `parent` indexes the recorder's span list (-1: root or
/// parent not kept).
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  Layer layer = Layer::kRun;
};

/// The spans of one simulation, kept in memory. Per-layer counts, totals
/// and self times (span minus the time its child spans cover) are exact.
/// The raw span list keeps the first kMaxSpans spans so a million-job
/// replay stays bounded; pass durations are all kept, for percentiles.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 13;

  void begin(Layer layer);
  void end();

  struct Totals {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  [[nodiscard]] const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const std::vector<std::int64_t>& pass_ns() const {
    return pass_ns_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Placement-kernel probe results (see TimedScheduler).
  std::int64_t take_ns = 0;
  std::int64_t takes = 0;
  std::int64_t take_fits = 0;

 private:
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t index;
  };
  std::vector<Open> stack_;
  std::array<Totals, kLayerCount> totals_{};
  std::vector<std::int64_t> pass_ns_;
  std::vector<Span> spans_;
};

/// Forwarding SchedContext: times start_job and the vector-building
/// queries, forwards the rest untimed.
class TimedContext final : public dmsched::SchedContext {
 public:
  TimedContext(dmsched::SchedContext& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  [[nodiscard]] dmsched::SimTime now() const override { return inner_.now(); }
  [[nodiscard]] const dmsched::Cluster& cluster() const override {
    return inner_.cluster();
  }
  [[nodiscard]] const dmsched::Job& job(dmsched::JobId id) const override {
    return inner_.job(id);
  }
  [[nodiscard]] std::vector<dmsched::JobId> queued_jobs() const override;
  [[nodiscard]] std::vector<dmsched::RunningJob> running_jobs() const override;
  [[nodiscard]] dmsched::PlacementPolicy placement() const override {
    return inner_.placement();
  }
  [[nodiscard]] const dmsched::SlowdownModel& slowdown() const override {
    return inner_.slowdown();
  }
  [[nodiscard]] const dmsched::Topology& topology() const override {
    return inner_.topology();
  }
  [[nodiscard]] dmsched::MigrationPolicy migration() const override {
    return inner_.migration();
  }
  [[nodiscard]] const dmsched::AvailabilityTimeline* timeline() const override {
    return inner_.timeline();
  }
  [[nodiscard]] bool queue_order_stable() const override {
    return inner_.queue_order_stable();
  }
  [[nodiscard]] std::uint64_t queue_tail_epoch() const override {
    return inner_.queue_tail_epoch();
  }
  [[nodiscard]] std::vector<dmsched::JobId> queued_jobs_after(
      std::uint64_t epoch) const override;
  void start_job(dmsched::JobId id, const dmsched::Allocation& alloc) override;

 private:
  dmsched::SchedContext& inner_;
  SpanRecorder& rec_;
};

/// Forwarding Scheduler: a `pass` span around the policy's schedule()
/// (handing it a TimedContext), then the placement-kernel probe.
class TimedScheduler final : public dmsched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<dmsched::Scheduler> inner, SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] const dmsched::SchedulerStats* stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] bool memory_aware() const override {
    return inner_->memory_aware();
  }
  void schedule(dmsched::SchedContext& ctx) override;

 private:
  std::unique_ptr<dmsched::Scheduler> inner_;
  SpanRecorder& rec_;
};

/// Forwarding TraceSource: one `pull` span per next().
class TimedSource final : public dmsched::TraceSource {
 public:
  TimedSource(dmsched::TraceSource& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  std::optional<dmsched::Job> next() override;
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return inner_.size_hint();
  }

 private:
  dmsched::TraceSource& inner_;
  SpanRecorder& rec_;
};

}  // namespace perfbench
