#include "layers.hpp"

#include <chrono>

#include "memory/placement.hpp"
#include "topology/topology.hpp"

namespace perfbench {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kRun:
      return "run";
    case Layer::kPass:
      return "pass";
    case Layer::kStart:
      return "start_job";
    case Layer::kQuery:
      return "query";
    case Layer::kPull:
      return "pull";
    case Layer::kProbe:
      return "probe";
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::begin(Layer layer) {
  std::int32_t index = -1;
  if (spans_.size() < kMaxSpans) {
    index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({0, 0, stack_.empty() ? -1 : stack_.back().index, layer});
  }
  stack_.push_back({layer, now_ns(), 0, index});
}

void SpanRecorder::end() {
  const std::int64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - open.start_ns;
  Totals& tot = totals_[static_cast<std::size_t>(open.layer)];
  ++tot.count;
  tot.total_ns += dur;
  tot.self_ns += dur - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (open.layer == Layer::kPass) pass_ns_.push_back(dur);
  if (open.index >= 0) {
    spans_[static_cast<std::size_t>(open.index)].start_ns = open.start_ns;
    spans_[static_cast<std::size_t>(open.index)].end_ns = t;
  }
}

namespace {

/// begin/end around one call.
template <typename Fn>
auto timed(SpanRecorder& rec, Layer layer, Fn&& fn) {
  rec.begin(layer);
  auto out = fn();
  rec.end();
  return out;
}

}  // namespace

std::vector<dmsched::JobId> TimedContext::queued_jobs() const {
  return timed(rec_, Layer::kQuery, [&] { return inner_.queued_jobs(); });
}

std::vector<dmsched::RunningJob> TimedContext::running_jobs() const {
  return timed(rec_, Layer::kQuery, [&] { return inner_.running_jobs(); });
}

std::vector<dmsched::JobId> TimedContext::queued_jobs_after(
    std::uint64_t epoch) const {
  return timed(rec_, Layer::kQuery,
               [&] { return inner_.queued_jobs_after(epoch); });
}

void TimedContext::start_job(dmsched::JobId id,
                             const dmsched::Allocation& alloc) {
  rec_.begin(Layer::kStart);
  inner_.start_job(id, alloc);
  rec_.end();
}

void TimedScheduler::schedule(dmsched::SchedContext& ctx) {
  rec_.begin(Layer::kPass);
  TimedContext timed_ctx(ctx, rec_);
  inner_->schedule(timed_ctx);
  rec_.end();

  // The probe reads only const state, so it cannot perturb the run; it
  // sits outside the pass span so sched.* never includes it.
  rec_.begin(Layer::kProbe);
  const std::vector<dmsched::JobId> queue = ctx.queued_jobs();
  if (!queue.empty()) {
    const dmsched::Job& head = ctx.job(queue.front());
    const std::int64_t t0 = now_ns();
    const auto take = dmsched::compute_take(dmsched::snapshot(ctx.cluster()),
                                            ctx.cluster().config(), head,
                                            ctx.placement());
    rec_.take_ns += now_ns() - t0;
    ++rec_.takes;
    if (take.has_value()) ++rec_.take_fits;
  }
  rec_.end();
}

std::optional<dmsched::Job> TimedSource::next() {
  return timed(rec_, Layer::kPull, [&] { return inner_.next(); });
}

}  // namespace perfbench
