#include "core/factory.hpp"

#include "common/assert.hpp"
#include "sched/conservative.hpp"
#include "sched/easy.hpp"
#include "sched/fcfs.hpp"

namespace dmsched {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return "fcfs";
    case SchedulerKind::kEasy: return "easy";
    case SchedulerKind::kConservative: return "conservative";
    case SchedulerKind::kMemAwareEasy: return "mem-easy";
    case SchedulerKind::kAdaptive: return "adaptive";
    case SchedulerKind::kResourceAwareEasy: return "resource-easy";
  }
  return "?";
}

std::optional<SchedulerKind> scheduler_kind_from_string(const std::string& s) {
  if (s == "fcfs") return SchedulerKind::kFcfs;
  if (s == "easy") return SchedulerKind::kEasy;
  if (s == "conservative") return SchedulerKind::kConservative;
  if (s == "mem-easy") return SchedulerKind::kMemAwareEasy;
  if (s == "adaptive") return SchedulerKind::kAdaptive;
  if (s == "resource-easy") return SchedulerKind::kResourceAwareEasy;
  return std::nullopt;
}

std::vector<SchedulerKind> all_scheduler_kinds() {
  return {SchedulerKind::kFcfs, SchedulerKind::kEasy,
          SchedulerKind::kConservative, SchedulerKind::kMemAwareEasy,
          SchedulerKind::kAdaptive};
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          const MemAwareOptions& mem_options) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kEasy:
      return std::make_unique<EasyScheduler>();
    case SchedulerKind::kConservative:
      return std::make_unique<ConservativeScheduler>();
    case SchedulerKind::kMemAwareEasy: {
      MemAwareOptions opts = mem_options;
      opts.adaptive = false;
      return std::make_unique<MemAwareEasyScheduler>(opts);
    }
    case SchedulerKind::kAdaptive: {
      MemAwareOptions opts = mem_options;
      opts.adaptive = true;
      return std::make_unique<MemAwareEasyScheduler>(opts);
    }
    case SchedulerKind::kResourceAwareEasy: {
      MemAwareOptions opts = mem_options;
      opts.adaptive = false;
      opts.axes = ResourceAxes::all();
      return std::make_unique<MemAwareEasyScheduler>(opts);
    }
  }
  DMSCHED_UNREACHABLE("bad scheduler kind");
}

}  // namespace dmsched
