// Queue ordering policies: who is at the head of the line.
#pragma once

#include <functional>
#include <vector>

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

/// Resolves a job id to its record.
using JobLookup = std::function<const Job&(JobId)>;

/// Sort job ids into queue order, resolving each id through `lookup`. `now`
/// is needed for wait-dependent policies (WFP). Ties always break on
/// submission then id, so the order is total and deterministic.
void order_queue(std::vector<JobId>& ids, const JobLookup& lookup,
                 QueueOrder order, SimTime now);

}  // namespace dmsched
