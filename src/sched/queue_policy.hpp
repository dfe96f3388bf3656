// Queue ordering policies: who is at the head of the line.
#pragma once

#include "workload/job.hpp"

namespace dmsched {

/// How the waiting queue is ordered before each scheduling pass.
enum class QueueOrder {
  kFcfs,          ///< submission time (production default)
  kShortestFirst, ///< requested walltime ascending (SJF on estimates)
  kLargestFirst,  ///< node count descending (capability-center priority)
  kWfp,           ///< WFP utility: (wait/walltime)^3 · nodes, descending —
                  ///< the ALCF leadership-machine policy
};

[[nodiscard]] const char* to_string(QueueOrder order);

/// True when `a` is ahead of `b` in queue order `order` at `now` (WFP's
/// score depends on wait time). Ties always break on submission then
/// `Job::id`, so the order is total and deterministic.
[[nodiscard]] bool queue_precedes(const Job& a, const Job& b,
                                  QueueOrder order, SimTime now);

}  // namespace dmsched
