#include "workload/trace_source.hpp"

#include <stdexcept>
#include <utility>

#include "common/assert.hpp"

namespace dmsched {

GeneratorTraceSource::GeneratorTraceSource(
    std::string name, std::function<std::optional<Job>()> generate,
    std::optional<std::size_t> size_hint)
    : name_(std::move(name)),
      generate_(std::move(generate)),
      size_hint_(size_hint) {
  DMSCHED_ASSERT(generate_ != nullptr, "GeneratorTraceSource: null generator");
}

std::optional<Job> GeneratorTraceSource::next() {
  if (done_) return std::nullopt;
  std::optional<Job> j = generate_();
  if (!j) {
    done_ = true;
    return std::nullopt;
  }
  if (any_ && j->submit < last_submit_) {
    throw std::logic_error("GeneratorTraceSource \"" + name_ +
                           "\": generator yielded a decreasing submit time "
                           "(sources must be in submission order)");
  }
  any_ = true;
  last_submit_ = j->submit;
  return j;
}

MappedTraceSource::MappedTraceSource(std::unique_ptr<TraceSource> inner,
                                     std::function<Job(Job)> fn)
    : inner_(std::move(inner)), fn_(std::move(fn)) {
  DMSCHED_ASSERT(inner_ != nullptr, "MappedTraceSource: null inner source");
  DMSCHED_ASSERT(fn_ != nullptr, "MappedTraceSource: null rewrite");
}

std::optional<Job> MappedTraceSource::next() {
  std::optional<Job> j = inner_->next();
  if (!j) return std::nullopt;
  Job mapped = fn_(*j);
  if (any_ && mapped.submit < last_submit_) {
    throw std::logic_error(
        "MappedTraceSource \"" + name() +
        "\": rewrite broke submission order (map_trace re-sorts; a stream "
        "cannot — use an order-preserving rewrite or materialize first)");
  }
  any_ = true;
  last_submit_ = mapped.submit;
  return mapped;
}

}  // namespace dmsched
