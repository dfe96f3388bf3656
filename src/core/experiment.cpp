#include "core/experiment.hpp"

namespace dmsched {

Trace make_workload(const ExperimentConfig& config) {
  return make_model_trace(config.model, config.jobs, config.seed,
                          config.cluster.total_nodes,
                          config.workload_reference_mem, config.target_load);
}

RunMetrics run_experiment(const ExperimentConfig& config) {
  const Trace trace = make_workload(config);
  return run_experiment(config, trace);
}

RunMetrics run_experiment(const ExperimentConfig& config, const Trace& trace) {
  EagerTraceSource source(trace);
  return run_experiment(config, source);
}

RunMetrics run_experiment(const ExperimentConfig& config, TraceSource& source) {
  SchedulingSimulation sim(config.cluster, source,
                           make_scheduler(config.scheduler, config.mem_options),
                           config.engine);
  RunMetrics metrics = sim.run();
  if (!config.label.empty()) metrics.label = config.label;
  return metrics;
}

ExperimentConfig scenario_experiment(const Scenario& scenario,
                                     SchedulerKind kind) {
  ExperimentConfig c;
  c.label = scenario.info.name + "/" + to_string(kind);
  c.cluster = scenario.cluster;
  c.scheduler = kind;
  c.jobs = scenario.trace.size();
  c.workload_reference_mem = scenario.workload_reference_mem;
  // Scenarios carry the resolved remote-penalty multiplier (they sit below
  // memory/ and cannot name SlowdownModel); 1.0 is a bit-identical no-op.
  c.engine.slowdown = c.engine.slowdown.with_remote_penalty(
      scenario.remote_penalty);
  return c;
}

RunMetrics run_scenario(const Scenario& scenario, SchedulerKind kind) {
  return run_experiment(scenario_experiment(scenario, kind), scenario.trace);
}

ExperimentConfig scenario_experiment(const ScenarioStream& stream,
                                     SchedulerKind kind) {
  ExperimentConfig c;
  c.label = stream.info.name + "/" + to_string(kind);
  c.cluster = stream.cluster;
  c.scheduler = kind;
  c.jobs = stream.source != nullptr
               ? stream.source->size_hint().value_or(0)
               : 0;
  c.workload_reference_mem = stream.workload_reference_mem;
  c.engine.slowdown =
      c.engine.slowdown.with_remote_penalty(stream.remote_penalty);
  return c;
}

}  // namespace dmsched
