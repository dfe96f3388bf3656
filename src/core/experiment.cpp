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

namespace {

/// The config both scenario overloads build: the bundle's machine, its
/// reference memory and its resolved remote-penalty multiplier.
template <class Bundle>
ExperimentConfig experiment_for(const Bundle& b, std::size_t jobs,
                                SchedulerKind kind) {
  ExperimentConfig c;
  c.label = b.info.name + "/" + to_string(kind);
  c.cluster = b.cluster;
  c.scheduler = kind;
  c.jobs = jobs;
  c.workload_reference_mem = b.workload_reference_mem;
  // Scenarios carry the resolved remote-penalty multiplier (they sit below
  // memory/ and cannot name SlowdownModel); 1.0 is a bit-identical no-op.
  c.engine.slowdown = c.engine.slowdown.with_remote_penalty(b.remote_penalty);
  return c;
}

}  // namespace

ExperimentConfig scenario_experiment(const Scenario& scenario,
                                     SchedulerKind kind) {
  return experiment_for(scenario, scenario.trace.size(), kind);
}

RunMetrics run_scenario(const Scenario& scenario, SchedulerKind kind) {
  return run_experiment(scenario_experiment(scenario, kind), scenario.trace);
}

ExperimentConfig scenario_experiment(const ScenarioStream& stream,
                                     SchedulerKind kind) {
  const std::size_t jobs =
      stream.source != nullptr ? stream.source->size_hint().value_or(0) : 0;
  return experiment_for(stream, jobs, kind);
}

}  // namespace dmsched
