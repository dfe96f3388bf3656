#include "sched/queue_policy.hpp"

#include <algorithm>

namespace dmsched {

const char* to_string(QueueOrder order) {
  switch (order) {
    case QueueOrder::kFcfs: return "fcfs";
    case QueueOrder::kShortestFirst: return "sjf";
    case QueueOrder::kLargestFirst: return "largest";
    case QueueOrder::kWfp: return "wfp";
  }
  return "?";
}

bool queue_precedes(const Job& a, const Job& b, QueueOrder order,
                    SimTime now) {
  switch (order) {
    case QueueOrder::kFcfs:
      break;
    case QueueOrder::kShortestFirst:
      if (a.walltime != b.walltime) return a.walltime < b.walltime;
      break;
    case QueueOrder::kLargestFirst:
      if (a.nodes != b.nodes) return a.nodes > b.nodes;
      break;
    case QueueOrder::kWfp: {
      const auto score = [now](const Job& j) {
        const double wait = (now - j.submit).seconds();
        const double wall = std::max(j.walltime.seconds(), 1.0);
        const double r = wait / wall;
        return r * r * r * static_cast<double>(j.nodes);
      };
      const double sa = score(a);
      const double sb = score(b);
      if (sa != sb) return sa > sb;
      break;
    }
  }
  if (a.submit != b.submit) return a.submit < b.submit;
  return a.id < b.id;
}

}  // namespace dmsched
