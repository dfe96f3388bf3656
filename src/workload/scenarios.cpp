#include "workload/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/resources.hpp"
#include "workload/models.hpp"
#include "workload/swf.hpp"
#include "workload/transform.hpp"

namespace dmsched {

namespace {

/// Per-scenario defaults, applied wherever ScenarioParams leaves a zero.
struct ScenarioDefaults {
  std::size_t jobs = 0;
  std::uint64_t seed = 0;
  double load = 0.0;
};

ScenarioParams resolve(const ScenarioParams& params,
                       const ScenarioDefaults& defaults) {
  ScenarioParams r = params;
  if (r.jobs == 0) r.jobs = defaults.jobs;
  if (r.seed == 0) r.seed = defaults.seed;
  if (r.load == 0.0) r.load = defaults.load;
  // The machine-scale knobs default to the published machine (1.0) for
  // every scenario; anything else non-positive is a caller error, not a
  // sentinel.
  if (r.node_scale == 0.0) r.node_scale = 1.0;
  if (r.pool_scale == 0.0) r.pool_scale = 1.0;
  if (r.node_scale <= 0.0 || r.pool_scale <= 0.0) {
    throw std::invalid_argument(
        "scenario machine-scale factors must be > 0 (node_scale=" +
        std::to_string(params.node_scale) +
        ", pool_scale=" + std::to_string(params.pool_scale) + ")");
  }
  // Topology knobs: 0/negative sentinels keep the published machine; the
  // structural validation (divisibility, zero-capacity tiers) happens in
  // topology/apply once the machine is known.
  if (r.remote_penalty == 0.0) r.remote_penalty = 1.0;
  if (r.remote_penalty <= 0.0) {
    throw std::invalid_argument(
        "scenario remote_penalty must be > 0 (got " +
        std::to_string(params.remote_penalty) + ")");
  }
  if (r.racks < 0) {
    throw std::invalid_argument(
        "scenario racks must be >= 0 (0 keeps the published racking), got " +
        std::to_string(params.racks));
  }
  if (r.rack_pool_frac > 1.0) {
    throw std::invalid_argument(
        "scenario rack_pool_frac must lie in [0, 1] (negative keeps the "
        "published split), got " + std::to_string(params.rack_pool_frac));
  }
  // Resource-vector knobs: 0 keeps the published provisioning; negative is
  // a caller error, never a sentinel.
  if (r.gpus_per_node < 0) {
    throw std::invalid_argument(
        "scenario gpus_per_node must be >= 0 (0 keeps the published "
        "provisioning), got " + std::to_string(params.gpus_per_node));
  }
  if (r.bb_capacity < Bytes{0}) {
    throw std::invalid_argument(
        "scenario bb_capacity must be >= 0 bytes (0 keeps the published "
        "capacity), got " + std::to_string(params.bb_capacity.count()));
  }
  return r;
}

/// Apply the resolved machine-scale multipliers to a scenario's published
/// cluster. Callers scale *before* building the workload so the trace
/// (job widths, offered load) adapts to the scaled machine — that is what
/// makes the knobs usable for capacity planning rather than just starving
/// or flooding the published workload.
ClusterConfig scale_cluster(ClusterConfig c, const ScenarioParams& p) {
  const ClusterConfig published = c;
  if (p.node_scale != 1.0) {
    // Snap to whole racks so rack-level pool accounting keeps its shape.
    const double scaled_racks =
        static_cast<double>(c.total_nodes) * p.node_scale /
        static_cast<double>(c.nodes_per_rack);
    const auto racks = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(scaled_racks)));
    c.total_nodes = static_cast<std::int32_t>(
        racks * static_cast<std::int64_t>(c.nodes_per_rack));
  }
  if (p.pool_scale != 1.0) {
    c.pool_per_rack = Bytes{static_cast<std::int64_t>(std::llround(
        static_cast<double>(c.pool_per_rack.count()) * p.pool_scale))};
    c.global_pool = Bytes{static_cast<std::int64_t>(std::llround(
        static_cast<double>(c.global_pool.count()) * p.pool_scale))};
    // A pool_scale small enough to round a published tier to zero silently
    // turns a tiered study into a flat one — make it loud instead.
    ensure_tiers_survive(c, published, "scenario pool_scale");
  }
  // The topology knobs reshape the (scaled) machine last, so pool_scale and
  // rack_pool_frac compose: scale the total, then split it.
  const TopologySpec spec{p.racks, p.rack_pool_frac};
  if (!spec.is_default()) c = apply(spec, std::move(c));
  // Resource-vector knobs: non-zero overrides *replace* the published
  // provisioning outright (they don't scale it), so any scenario can be
  // re-run with GPUs or a burst buffer without a new registry entry.
  if (p.gpus_per_node > 0) c.gpus_per_node = p.gpus_per_node;
  if (!p.bb_capacity.is_zero()) c.bb_capacity = p.bb_capacity;
  return c;
}

ClusterConfig make_cluster(std::string name, std::int32_t nodes,
                           std::int32_t per_rack, std::int64_t local_gib,
                           std::int64_t pool_gib, std::int64_t global_gib) {
  ClusterConfig c;
  c.name = std::move(name);
  c.total_nodes = nodes;
  c.nodes_per_rack = per_rack;
  c.local_mem_per_node = gib(local_gib);
  c.pool_per_rack = gib(pool_gib);
  c.global_pool = gib(global_gib);
  return c;
}

/// The machine + workload-model recipe of one synthetic scenario. The eager
/// and streaming builders below both consume it, so a scenario's published
/// machine and model are defined in exactly one place.
struct ModelRecipe {
  ClusterConfig cluster;
  WorkloadModel model;
  Bytes reference_mem;
};

/// One synthetic-model scenario: the shared shape of most entries.
Scenario model_scenario(ModelRecipe r, const ScenarioParams& p) {
  Scenario s;
  s.cluster = scale_cluster(std::move(r.cluster), p);
  s.workload_reference_mem = r.reference_mem;
  s.trace = make_model_trace(r.model, p.jobs, p.seed, s.cluster.total_nodes,
                             r.reference_mem, p.load);
  return s;
}

/// Streaming shape of the same: the workload as a pull-based source.
ScenarioStream model_scenario_stream(ModelRecipe r, const ScenarioParams& p) {
  ScenarioStream s;
  s.cluster = scale_cluster(std::move(r.cluster), p);
  s.workload_reference_mem = r.reference_mem;
  s.source = make_model_source(r.model, p.jobs, p.seed, s.cluster.total_nodes,
                               r.reference_mem, p.load);
  return s;
}

// --- scenario factories -----------------------------------------------------
// Each factory receives already-resolved params and must be deterministic in
// them: identical params => byte-identical Trace and ClusterConfig.

/// The PR-1 golden scenario, unchanged: the machine/workload whose RunMetrics
/// are pinned in tests/golden/. Oversubscribed mixed workload on a tiny
/// pooled machine; exercises the pools but barely separates the policies.
ModelRecipe golden_baseline_recipe() {
  return {make_cluster("tiny", 16, 4, 64, 32, 128), WorkloadModel::kMixed,
          gib(std::int64_t{96})};
}
Scenario build_golden_baseline(const ScenarioParams& p) {
  return model_scenario(golden_baseline_recipe(), p);
}
ScenarioStream stream_golden_baseline(const ScenarioParams& p) {
  return model_scenario_stream(golden_baseline_recipe(), p);
}

/// Local memory scarce relative to footprints AND the pools under pressure —
/// the regime where the paper's fig. 6 separates memory-aware EASY from the
/// node-only baseline. Capacity workload (memory-hungry, narrow) whose
/// footprints were sized for 96 GiB nodes, run on 40 GiB nodes with modest
/// rack pools: most jobs overflow, backfills compete with the queue head for
/// pool bytes, and EASY's node-only shadow makes visibly different (worse)
/// decisions than the 2-D reservation.
ModelRecipe memory_stressed_recipe() {
  return {make_cluster("mem-stress", 32, 8, 40, 96, 128),
          WorkloadModel::kCapacity, gib(std::int64_t{96})};
}
Scenario build_memory_stressed(const ScenarioParams& p) {
  return model_scenario(memory_stressed_recipe(), p);
}
ScenarioStream stream_memory_stressed(const ScenarioParams& p) {
  return model_scenario_stream(memory_stressed_recipe(), p);
}

/// Ample local memory but deliberately small rack pools and no global tier:
/// the disaggregated pool itself is the bottleneck, so pool routing and
/// pool-aware reservations dominate. Backs the pool-size sweep (fig. 4).
ModelRecipe pool_contended_recipe() {
  return {make_cluster("pool-contended", 64, 16, 128, 192, 0),
          WorkloadModel::kCapacity, gib(std::int64_t{192})};
}
Scenario build_pool_contended(const ScenarioParams& p) {
  return model_scenario(pool_contended_recipe(), p);
}
ScenarioStream stream_pool_contended(const ScenarioParams& p) {
  return model_scenario_stream(pool_contended_recipe(), p);
}

/// Mixed workload with arrivals quantized into 2-hour waves: every job in a
/// window submits at the window start, so the queue fills in bursts and
/// drains between them. Stresses backfill depth and reservation churn the
/// way diurnal submission spikes do.
ModelRecipe bursty_arrivals_recipe() {
  return {make_cluster("bursty", 32, 8, 96, 96, 96), WorkloadModel::kMixed,
          gib(std::int64_t{96})};
}
/// Quantization is monotone in submit, so it preserves submission order:
/// the eager map_trace re-sort is the identity and the streaming
/// MappedTraceSource yields the identical job sequence.
Job quantize_to_burst(Job j) {
  constexpr double kBurstSec = 2.0 * 3600.0;
  j.submit = seconds(std::floor(j.submit.seconds() / kBurstSec) * kBurstSec);
  return j;
}
Scenario build_bursty_arrivals(const ScenarioParams& p) {
  Scenario s = model_scenario(bursty_arrivals_recipe(), p);
  s.trace = map_trace(s.trace, quantize_to_burst);
  return s;
}
ScenarioStream stream_bursty_arrivals(const ScenarioParams& p) {
  ScenarioStream s = model_scenario_stream(bursty_arrivals_recipe(), p);
  s.source = std::make_unique<MappedTraceSource>(std::move(s.source),
                                                 &quantize_to_burst);
  return s;
}

/// Capability-center workload: wide, long jobs whose aggregate footprints
/// land on many racks at once. Exercises multi-rack placement and the
/// global pool as overflow for jobs sized beyond 192 GiB nodes.
ModelRecipe wide_jobs_recipe() {
  return {make_cluster("wide-jobs", 128, 16, 192, 512, 1024),
          WorkloadModel::kCapability, gib(std::int64_t{256})};
}
Scenario build_wide_jobs(const ScenarioParams& p) {
  return model_scenario(wide_jobs_recipe(), p);
}
ScenarioStream stream_wide_jobs(const ScenarioParams& p) {
  return model_scenario_stream(wide_jobs_recipe(), p);
}

/// Rack-scale provisioning with no global safety net: every far byte is one
/// switch hop away, and a rack's pool exhaustion cannot be papered over by
/// a distant tier. The placement axis that matters here is node selection
/// (spreading vs packing vs pool-chasing); pool routing is moot. Backs the
/// rack-scale-vs-system-wide provisioning comparison.
ModelRecipe rack_local_recipe() {
  return {make_cluster("rack-local", 48, 8, 64, 128, 0),
          WorkloadModel::kCapacity, gib(std::int64_t{128})};
}
Scenario build_rack_local(const ScenarioParams& p) {
  return model_scenario(rack_local_recipe(), p);
}
ScenarioStream stream_rack_local(const ScenarioParams& p) {
  return model_scenario_stream(rack_local_recipe(), p);
}

/// The rack-local machine with a thin global tier bolted on: the same
/// 128 GiB rack pools and the same workload (seed and reference node
/// included), so the strict-locality rejection rate carries over verbatim —
/// and the distance-graded `shared-neighbors` strategy can be measured
/// recovering those rejections through neighbor-rack draws (one extra hop)
/// instead of shedding them. Backs tests/golden/shared_neighbors_test.cpp
/// and the migration knobs' demonstration scenario.
ModelRecipe shared_neighbors_recipe() {
  return {make_cluster("shared-neighbors", 48, 8, 64, 128, 96),
          WorkloadModel::kCapacity, gib(std::int64_t{128})};
}
Scenario build_shared_neighbors(const ScenarioParams& p) {
  return model_scenario(shared_neighbors_recipe(), p);
}
ScenarioStream stream_shared_neighbors(const ScenarioParams& p) {
  return model_scenario_stream(shared_neighbors_recipe(), p);
}

/// Both distance tiers present and under pressure: scarce local memory, a
/// modest rack tier, and a global tier big enough to start jobs early but
/// expensive enough to regret it. This is the scenario where the named
/// placement strategies genuinely diverge — local-first queues (and sheds
/// the jobs no rack pool can ever fund) while global-fallback starts and
/// dilates — pinned by tests/golden/topology_placement_test.cpp.
ModelRecipe tiered_contended_recipe() {
  return {make_cluster("tiered-contended", 64, 8, 48, 96, 192),
          WorkloadModel::kCapacity, gib(std::int64_t{96})};
}
Scenario build_tiered_contended(const ScenarioParams& p) {
  return model_scenario(tiered_contended_recipe(), p);
}
ScenarioStream stream_tiered_contended(const ScenarioParams& p) {
  return model_scenario_stream(tiered_contended_recipe(), p);
}

/// A mixed workload on a machine provisioning 4 rack-pooled GPUs per node
/// (32 devices per 8-node rack). Memory is comfortable (96 GiB footprints on
/// 96 GiB nodes plus pools), so the binding constraint is the device pool —
/// the regime that separates the full resource vector from the memory-only
/// view of the same scheduler.
ModelRecipe gpu_contended_recipe() {
  ClusterConfig c = make_cluster("gpu-contended", 32, 8, 96, 96, 96);
  c.gpus_per_node = 4;
  return {std::move(c), WorkloadModel::kMixed, gib(std::int64_t{96})};
}
/// Deterministic GPU decoration, keyed off static job fields (NOT the job
/// id, which the eager Trace::make assigns only after this map runs — the
/// streamed and eager constructions must agree field-for-field). Roughly
/// half the jobs become accelerator jobs at the provisioned 4 GPUs/node;
/// one in six of the narrow ones demands 8 GPUs/node — twice provisioning —
/// so a rack's pooled devices drain faster than its nodes. The 8-GPU class
/// is capped at 8 nodes (64 devices < the machine's 128) so no job is
/// infeasible-on-empty. Identity on submit: order is preserved.
Job decorate_gpu_contended(Job j) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(j.user) * 2654435761ULL +
      static_cast<std::uint64_t>(j.nodes) * 40503ULL +
      static_cast<std::uint64_t>(j.mem_per_node.count() >> 20);
  if (key % 2 == 0) {
    j.gpus_per_node = (j.nodes <= 8 && key % 6 == 0) ? 8 : 4;
  }
  return j;
}
Scenario build_gpu_contended(const ScenarioParams& p) {
  Scenario s = model_scenario(gpu_contended_recipe(), p);
  s.trace = map_trace(s.trace, decorate_gpu_contended);
  return s;
}
ScenarioStream stream_gpu_contended(const ScenarioParams& p) {
  ScenarioStream s = model_scenario_stream(gpu_contended_recipe(), p);
  s.source = std::make_unique<MappedTraceSource>(std::move(s.source),
                                                 &decorate_gpu_contended);
  return s;
}

/// Capacity workload where a third of the jobs stage their footprint
/// through a 256 GiB cluster-global burst buffer before running. Staging
/// reservations (capped at 128 GiB per job, so only two of the largest can
/// stage at once) gate the queue where nodes and memory would not — the
/// cluster-global-axis counterpart of gpu-contended's rack-pooled axis.
ModelRecipe bb_staging_recipe() {
  ClusterConfig c = make_cluster("bb-staging", 32, 8, 96, 96, 96);
  c.bb_capacity = gib(std::int64_t{256});
  return {std::move(c), WorkloadModel::kCapacity, gib(std::int64_t{96})};
}
/// Deterministic BB decoration: every third job (by the same id-free static
/// key as gpu-contended) reserves min(total footprint, 128 GiB) of burst
/// buffer. 128 GiB < the 512 GiB capacity, so no job is rejected outright;
/// identity on submit, so eager and streamed constructions agree.
Job decorate_bb_staging(Job j) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(j.user) * 2654435761ULL +
      static_cast<std::uint64_t>(j.nodes) * 40503ULL +
      static_cast<std::uint64_t>(j.mem_per_node.count() >> 20);
  if (key % 3 == 0) {
    const Bytes footprint = checked_mul(j.mem_per_node, j.nodes);
    j.bb_bytes = std::min(footprint, gib(std::int64_t{128}));
  }
  return j;
}
Scenario build_bb_staging(const ScenarioParams& p) {
  Scenario s = model_scenario(bb_staging_recipe(), p);
  s.trace = map_trace(s.trace, decorate_bb_staging);
  return s;
}
ScenarioStream stream_bb_staging(const ScenarioParams& p) {
  ScenarioStream s = model_scenario_stream(bb_staging_recipe(), p);
  s.source = std::make_unique<MappedTraceSource>(std::move(s.source),
                                                 &decorate_bb_staging);
  return s;
}

/// The bundled SWF fixture (tests/data/sample.swf), embedded so the scenario
/// needs no file path, replicated via `map_trace` into a longer trace on a
/// 12-node machine whose local memory is below the trace's largest
/// footprints. Demonstrates the SWF-to-scenario path end-to-end.
/// tests/workload/scenarios_test.cpp asserts this copy stays identical to
/// the on-disk fixture.
constexpr const char* kSampleSwf = R"(; Sample SWF trace bundled with the DMSched test suite.
; 30 completed jobs on a machine with 4-core nodes; submissions span
; 0..6300 s. Format: PWA SWF v2.2 (18 fields, see src/workload/swf.cpp).
; MaxProcs: 48
; Note: memory fields are KB per processor.
1 0 -1 3600 8 -1 4194304 8 4000 4194304 1 1 1 1 1 1 -1 -1
2 180 -1 1200 4 -1 1048576 4 1800 1048576 1 2 1 1 1 1 -1 -1
3 420 -1 7200 16 -1 2097152 16 7200 2097152 1 3 1 1 1 1 -1 -1
4 600 -1 300 1 -1 -1 1 600 -1 1 1 1 1 1 1 -1 -1
5 840 -1 5400 32 -1 1048576 32 7200 1048576 1 4 1 1 1 1 -1 -1
6 900 -1 900 12 -1 524288 12 1200 524288 1 2 1 1 1 1 -1 -1
7 1080 -1 10800 48 -1 2097152 48 14400 2097152 1 5 1 1 1 1 -1 -1
8 1260 -1 600 2 -1 -1 2 900 -1 1 1 1 1 1 1 -1 -1
9 1500 -1 4800 24 -1 1048576 24 6000 1048576 1 3 1 1 1 1 -1 -1
10 1620 -1 2400 8 -1 4194304 8 3600 4194304 1 2 1 1 1 1 -1 -1
11 1800 -1 1800 4 -1 524288 4 2400 524288 1 4 1 1 1 1 -1 -1
12 2040 -1 9000 40 -1 1048576 40 10800 1048576 1 5 1 1 1 1 -1 -1
13 2160 -1 3000 16 -1 2097152 16 3600 2097152 1 1 1 1 1 1 -1 -1
14 2400 -1 450 6 -1 -1 6 600 -1 1 2 1 1 1 1 -1 -1
15 2520 -1 6600 20 -1 1048576 20 7200 1048576 1 3 1 1 1 1 -1 -1
16 2700 -1 1500 8 -1 524288 8 1800 524288 1 4 1 1 1 1 -1 -1
17 2940 -1 8100 28 -1 2097152 28 9000 2097152 1 5 1 1 1 1 -1 -1
18 3120 -1 750 3 -1 -1 3 900 -1 1 1 1 1 1 1 -1 -1
19 3300 -1 7800 36 -1 1048576 36 9000 1048576 1 2 1 1 1 1 -1 -1
20 3480 -1 2100 10 -1 4194304 10 2400 4194304 1 3 1 1 1 1 -1 -1
21 3600 -1 3300 14 -1 524288 14 3600 524288 1 4 1 1 1 1 -1 -1
22 3840 -1 9600 44 -1 1048576 44 10800 1048576 1 5 1 1 1 1 -1 -1
23 4020 -1 1050 5 -1 -1 5 1200 -1 1 1 1 1 1 1 -1 -1
24 4200 -1 5100 18 -1 2097152 18 6000 2097152 1 2 1 1 1 1 -1 -1
25 4500 -1 2700 9 -1 1048576 9 3600 1048576 1 3 1 1 1 1 -1 -1
26 4740 -1 6900 26 -1 524288 26 7200 524288 1 4 1 1 1 1 -1 -1
27 4980 -1 1350 7 -1 -1 7 1800 -1 1 5 1 1 1 1 -1 -1
28 5280 -1 8400 30 -1 2097152 30 9000 2097152 1 1 1 1 1 1 -1 -1
29 5580 -1 1950 11 -1 1048576 11 2400 1048576 1 2 1 1 1 1 -1 -1
30 6300 -1 4200 22 -1 524288 22 4800 524288 1 3 1 1 1 1 -1 -1
)";

/// The replay machine: 48 processors at 4 per node => 12 nodes; per-node
/// footprints reach 16 GiB, above the 12 GiB of local memory, so the replay
/// needs the pools. Shared by the eager and streaming builders.
ClusterConfig swf_replay_cluster(const char* name) {
  return make_cluster(name, 12, 4, 12, 24, 32);
}

/// Parse the embedded day once (30 jobs; O(1) w.r.t. replay length).
SwfResult read_sample_day(const char* trace_name) {
  SwfOptions options;
  options.procs_per_node = 4;
  std::istringstream in(kSampleSwf);
  return read_swf(in, options, trace_name);
}

constexpr std::int64_t kSwfReplayPeriodSec = 7200;

Scenario swf_replay_scenario(const ScenarioParams& p,
                             const char* cluster_name) {
  Scenario s;
  s.cluster = scale_cluster(swf_replay_cluster(cluster_name), p);
  s.workload_reference_mem = s.cluster.local_mem_per_node;

  const SwfResult base = read_sample_day("sample.swf");

  // Replicate the 30-job day via map_trace: copy k is shifted by k periods
  // so replicas tile without overlapping bursts. (Div/mod ceil instead of
  // the add-then-divide idiom: huge job requests must not wrap to zero
  // replicas and an empty trace.)
  const std::size_t base_jobs = base.trace.size();
  const std::size_t replicas =
      p.jobs / base_jobs + (p.jobs % base_jobs != 0 ? 1 : 0);
  std::vector<Job> jobs;
  jobs.reserve(replicas * base.trace.size());
  for (std::size_t k = 0; k < replicas; ++k) {
    const SimTime shift =
        seconds(kSwfReplayPeriodSec * static_cast<std::int64_t>(k));
    const Trace copy = map_trace(base.trace, [shift](Job j) {
      j.submit = j.submit + shift;
      return j;
    });
    for (const Job& j : copy.jobs()) jobs.push_back(j);
  }
  Trace replicated = Trace::make(std::move(jobs), cluster_name);
  replicated = replicated.prefix(p.jobs);
  // Land the replay at the requested offered load by scaling arrival gaps.
  const double current = replicated.offered_load(s.cluster.total_nodes);
  if (current > 0.0 && p.load > 0.0) {
    replicated = replicated.scaled_arrivals(current / p.load);
  }
  s.trace = std::move(replicated);
  return s;
}

Scenario build_mixed_swf(const ScenarioParams& p) {
  return swf_replay_scenario(p, "mixed-swf");
}

/// The same replicated-SWF machinery at production scale: the bundled day
/// tiled to 10^5 jobs (~9 months of submissions) so the discrete-event core
/// is exercised at the trace sizes the related work replays (month-scale
/// production traces). The default load sits *below* saturation so the
/// queue stays bounded and throughput measures the event core, not a
/// scheduler walking an ever-growing backlog. bench/sim_throughput's
/// tracing-overhead section replays a 100k-job prefix.
Scenario build_large_replay(const ScenarioParams& p) {
  return swf_replay_scenario(p, "large-replay");
}

/// The streaming counterpart of swf_replay_scenario: tiles the embedded day
/// on the fly instead of materializing replicas × 30 jobs. Job i of the
/// replay is day job i%N shifted by i/N periods — the day spans less than
/// one period, so the tiling is already in submission order and matches the
/// eager Trace::make + prefix construction job-for-job. The offered-load
/// prepass walks the same p.jobs jobs with Trace::offered_load's summation
/// order and arithmetic, so the arrival-scaling factor is bit-identical too.
/// Workload memory is O(day), independent of p.jobs — this is what lets the
/// million-job replay run without a million-Job vector.
ScenarioStream swf_replay_stream(const ScenarioParams& p,
                                 const char* cluster_name) {
  ScenarioStream s;
  s.cluster = scale_cluster(swf_replay_cluster(cluster_name), p);
  s.workload_reference_mem = s.cluster.local_mem_per_node;

  auto day = std::make_shared<const Trace>(read_sample_day("sample.swf").trace);
  const std::size_t base_jobs = day->size();
  auto job_at = [day, base_jobs](std::size_t i) {
    Job j = day->jobs()[i % base_jobs];
    j.submit = j.submit + seconds(kSwfReplayPeriodSec *
                                  static_cast<std::int64_t>(i / base_jobs));
    return j;
  };

  bool scale = false;
  double factor = 1.0;
  if (p.jobs >= 2 && p.load > 0.0) {
    const double span_sec =
        (job_at(p.jobs - 1).submit - job_at(0).submit).seconds();
    if (span_sec > 0.0) {
      double node_seconds = 0.0;
      for (std::size_t i = 0; i < p.jobs; ++i) {
        node_seconds += job_at(i).used_node_seconds();
      }
      const double current =
          node_seconds /
          (static_cast<double>(s.cluster.total_nodes) * span_sec);
      if (current > 0.0) {
        scale = true;
        factor = current / p.load;
      }
    }
  }
  const SimTime epoch = p.jobs > 0 ? job_at(0).submit : SimTime{};
  const std::size_t total = p.jobs;
  auto next_i = std::make_shared<std::size_t>(0);
  s.source = std::make_unique<GeneratorTraceSource>(
      cluster_name,
      [job_at, next_i, total, scale, factor, epoch]() -> std::optional<Job> {
        if (*next_i >= total) return std::nullopt;
        Job j = job_at((*next_i)++);
        // Trace::scaled_arrivals' exact arithmetic.
        if (scale) j.submit = epoch + (j.submit - epoch).scaled(factor);
        return j;
      },
      total);
  return s;
}

ScenarioStream stream_mixed_swf(const ScenarioParams& p) {
  return swf_replay_stream(p, "mixed-swf");
}

ScenarioStream stream_large_replay(const ScenarioParams& p) {
  return swf_replay_stream(p, "large-replay");
}

/// The tiled day at 10^6 jobs (~7.6 years of submissions): the streaming-
/// ingestion scale target. Eager construction still works (the bench's
/// differential arm uses it) but costs a million-Job trace; the stream runs
/// the same replay at O(day) workload memory.
Scenario build_million_replay(const ScenarioParams& p) {
  return swf_replay_scenario(p, "million-replay");
}

ScenarioStream stream_million_replay(const ScenarioParams& p) {
  return swf_replay_stream(p, "million-replay");
}

// --- the registry -----------------------------------------------------------

struct ScenarioEntry {
  ScenarioInfo info;
  ScenarioDefaults defaults;
  Scenario (*build)(const ScenarioParams&);
  ScenarioStream (*stream)(const ScenarioParams&);
};

const std::vector<ScenarioEntry>& registry() {
  static const std::vector<ScenarioEntry> entries = {
      {{"golden-baseline",
        "the PR-1 golden scenario: oversubscribed mixed workload on the tiny "
        "pooled machine (pinned in tests/golden/)",
        "table 3 (regression baseline)",
        "FCFS worst; EASY/mem-easy/adaptive nearly tied (little pressure)"},
       {400, 20240726, 1.1},
       &build_golden_baseline, &stream_golden_baseline},
      {{"memory-stressed",
        "capacity workload sized for 96 GiB nodes on 40 GiB nodes with "
        "modest pools: local memory scarce, pools under pressure",
        "fig. 6 / table 3",
        "mem-easy and adaptive beat EASY (different makespans); FCFS worst"},
       {500, 7, 1.05},
       &build_memory_stressed, &stream_memory_stressed},
      {{"pool-contended",
        "ample local memory but small rack pools and no global tier: the "
        "disaggregated pool is the bottleneck",
        "fig. 4",
        "pool-aware policies ahead; EASY starves pool-blocked queue heads"},
       {600, 11, 1.0},
       &build_pool_contended, &stream_pool_contended},
      {{"bursty-arrivals",
        "mixed workload with arrivals quantized into 2-hour waves: queue "
        "fills in bursts and drains between them",
        "fig. 7 (pool timeline under spikes)",
        "backfilling policies (EASY family) far ahead of FCFS; memory-aware "
        "variants ahead on the burst peaks"},
       {500, 13, 0.9},
       &build_bursty_arrivals, &stream_bursty_arrivals},
      {{"wide-jobs",
        "capability workload: wide, long jobs spanning many racks, global "
        "pool as overflow",
        "fig. 8 (class breakdown, capability column)",
        "conservative close to EASY (few backfill holes); memory-awareness "
        "secondary"},
       {400, 17, 0.9},
       &build_wide_jobs, &stream_wide_jobs},
      {{"rack-local",
        "rack pools only, no global tier: every far byte is one hop away "
        "and rack exhaustion has no safety net (node-selection study)",
        "fig. 4 (rack-scale provisioning column)",
        "pool-aware/balanced selection ahead of first-fit; routing is moot "
        "without a global tier"},
       {500, 23, 1.0},
       &build_rack_local, &stream_rack_local},
      {{"shared-neighbors",
        "the rack-local machine plus a thin 96 GiB global tier, same "
        "workload seed: strict locality sheds the same jobs, while the "
        "rack-neighbor-global routing funds them from foreign rack pools "
        "one extra hop away (DOLMA-style distance-graded sharing)",
        "fig. 4 extension (tests/golden/shared_neighbors_test)",
        "shared-neighbors recovers most of local-first's rejections at a "
        "beta_neighbor-priced dilation; migration knobs re-tier the "
        "recovered bytes at runtime"},
       {500, 23, 1.0},
       &build_shared_neighbors, &stream_shared_neighbors},
      {{"tiered-contended",
        "scarce local memory with a contended rack tier AND a global tier: "
        "the regime where placement strategies diverge",
        "fig. 6 (topology variant; tests/golden/topology_placement_test)",
        "local-first trades queueing for locality (lower remote-access "
        "fraction, larger makespan); global-fallback the reverse"},
       {500, 29, 1.05},
       &build_tiered_contended, &stream_tiered_contended},
      {{"gpu-contended",
        "mixed workload on a 4-GPU-per-node machine (rack-pooled devices) "
        "where half the jobs are accelerator jobs and the narrow hungry ones "
        "demand 8 GPUs/node: rack device pools drain before nodes do",
        "sec. VI (multi-resource extension; tests/golden/multi_resource_test)",
        "resource-easy ahead of the GPU-blind mem-easy (blind backfill picks "
        "candidates whose starts then fail device revalidation)"},
       {500, 31, 1.0},
       &build_gpu_contended, &stream_gpu_contended},
      {{"bb-staging",
        "capacity workload where a third of the jobs reserve up to 128 GiB "
        "of a 256 GiB cluster-global burst buffer for staging: BB "
        "reservations, not nodes or memory, gate the queue",
        "sec. VI (multi-resource extension)",
        "resource-easy at or ahead of the BB-blind mem-easy; FCFS worst"},
       {500, 37, 1.1},
       &build_bb_staging, &stream_bb_staging},
      {{"mixed-swf",
        "the bundled 30-job SWF fixture replicated onto a 12-node machine "
        "with 12 GiB local memory (footprints reach 16 GiB)",
        "table 1 (trace-driven validation)",
        "mem-easy at or ahead of EASY; exercises the SWF import path"},
       {240, 1, 1.2},
       &build_mixed_swf, &stream_mixed_swf},
      {{"large-replay",
        "the mixed-swf day replicated to 100k jobs (~9 months of "
        "submissions) on the same 12-node machine: the sim-throughput "
        "workload for million-event traces",
        "sec. V scale claims (month-scale trace replay; bench/sim_throughput)",
        "same regime as mixed-swf; exists to measure events/sec and "
        "jobs/sec, not to separate policies",
        /*infrastructure=*/true},
       {100000, 1, 0.8},
       &build_large_replay, &stream_large_replay},
      {{"million-replay",
        "the mixed-swf day tiled to 10^6 jobs (~7.6 years of submissions) "
        "on the same 12-node machine: the streaming-ingestion scale target. "
        "Use make_scenario_stream — the eager build materializes a "
        "million-Job trace, the stream replays it at O(day) workload memory",
        "sec. V scale claims (month-scale replay at bounded memory; "
        "bench/sim_throughput)",
        "same regime as mixed-swf; exists to prove streamed ingestion, not "
        "to separate policies",
        /*infrastructure=*/true},
       {1000000, 1, 0.8},
       &build_million_replay, &stream_million_replay},
  };
  return entries;
}

const ScenarioEntry& find_entry(const std::string& name) {
  for (const ScenarioEntry& e : registry()) {
    if (e.info.name == name) return e;
  }
  std::string known;
  for (const ScenarioEntry& e : registry()) {
    if (!known.empty()) known += ", ";
    known += e.info.name;
  }
  throw std::invalid_argument("unknown scenario \"" + name +
                              "\" (known: " + known + ")");
}

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const ScenarioEntry& e : registry()) names.push_back(e.info.name);
  return names;
}

bool scenario_exists(const std::string& name) {
  for (const ScenarioEntry& e : registry()) {
    if (e.info.name == name) return true;
  }
  return false;
}

const ScenarioInfo& scenario_info(const std::string& name) {
  return find_entry(name).info;
}

Scenario make_scenario(const std::string& name, const ScenarioParams& params) {
  const ScenarioEntry& entry = find_entry(name);
  const ScenarioParams resolved = resolve(params, entry.defaults);
  Scenario s = entry.build(resolved);
  s.info = entry.info;
  s.remote_penalty = resolved.remote_penalty;
  return s;
}

ScenarioStream make_scenario_stream(const std::string& name,
                                    const ScenarioParams& params) {
  const ScenarioEntry& entry = find_entry(name);
  const ScenarioParams resolved = resolve(params, entry.defaults);
  ScenarioStream s = entry.stream(resolved);
  s.info = entry.info;
  s.remote_penalty = resolved.remote_penalty;
  return s;
}

}  // namespace dmsched
