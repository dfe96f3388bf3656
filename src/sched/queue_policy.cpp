#include "sched/queue_policy.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

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

void order_queue(std::vector<JobId>& ids, const JobLookup& get,
                 QueueOrder order, SimTime now) {
  DMSCHED_ASSERT(get != nullptr, "order_queue: null job lookup");
  auto tie = [&](JobId a, JobId b) {
    const Job& ja = get(a);
    const Job& jb = get(b);
    if (ja.submit != jb.submit) return ja.submit < jb.submit;
    return a < b;
  };
  switch (order) {
    case QueueOrder::kFcfs:
      std::sort(ids.begin(), ids.end(), tie);
      break;
    case QueueOrder::kShortestFirst:
      std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
        if (get(a).walltime != get(b).walltime) {
          return get(a).walltime < get(b).walltime;
        }
        return tie(a, b);
      });
      break;
    case QueueOrder::kLargestFirst:
      std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
        if (get(a).nodes != get(b).nodes) {
          return get(a).nodes > get(b).nodes;
        }
        return tie(a, b);
      });
      break;
    case QueueOrder::kWfp: {
      auto score = [&](JobId id) {
        const Job& j = get(id);
        const double wait = (now - j.submit).seconds();
        const double wall = std::max(j.walltime.seconds(), 1.0);
        const double r = wait / wall;
        return r * r * r * static_cast<double>(j.nodes);
      };
      std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
        const double sa = score(a);
        const double sb = score(b);
        if (sa != sb) return sa > sb;
        return tie(a, b);
      });
      break;
    }
  }
}

}  // namespace dmsched
