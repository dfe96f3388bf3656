#include "workload/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "common/input_error.hpp"
#include "common/resources.hpp"
#include "common/str.hpp"
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
  // A load of 0 keeps the scenario's default; NaN or infinity would reach
  // the arrival scaling as a factor no clock can hold.
  if (!std::isfinite(params.load) || params.load < 0.0) {
    throw InputError("load", strformat("load = %g, must be finite and >= 0 "
                                       "(0 keeps the scenario's load)",
                                       params.load));
  }
  ScenarioParams r = params;
  if (r.jobs == 0) r.jobs = defaults.jobs;
  if (r.seed == 0) r.seed = defaults.seed;
  if (r.load == 0.0) r.load = defaults.load;
  // The multipliers default to the published machine and model (1.0) for
  // every scenario; anything else that is not finite and positive is a
  // caller error, not a sentinel.
  for (const auto& [field, factor] :
       {std::pair{"node_scale", &r.node_scale},
        std::pair{"pool_scale", &r.pool_scale},
        std::pair{"remote_penalty", &r.remote_penalty}}) {
    if (*factor == 0.0) *factor = 1.0;
    if (!(std::isfinite(*factor) && *factor > 0.0)) {
      throw InputError(field, strformat("%s = %g, must be finite and > 0 (0 "
                                        "keeps the published machine)",
                                        field, *factor));
    }
  }
  // topology/apply checks racks and rack_pool_frac once the machine is
  // known. The resource-vector knobs keep the published machine at 0.
  if (r.gpus_per_node < 0) {
    throw InputError("gpus_per_node", strformat("gpus_per_node = %d, must be "
                                                ">= 0", r.gpus_per_node));
  }
  if (r.bb_capacity < Bytes{0}) {
    throw InputError("bb_capacity",
                     strformat("bb_capacity = %lld B, must be >= 0",
                               static_cast<long long>(r.bb_capacity.count())));
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
    if (!(scaled_racks * c.nodes_per_rack <= INT32_MAX)) {
      throw InputError("node_scale", strformat("node_scale = %g overflows the "
                                               "node count", p.node_scale));
    }
    const auto racks = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(scaled_racks)));
    c.total_nodes = static_cast<std::int32_t>(
        racks * static_cast<std::int64_t>(c.nodes_per_rack));
  }
  if (p.pool_scale != 1.0) {
    const auto scale = [&p](Bytes b) {
      const double scaled = static_cast<double>(b.count()) * p.pool_scale;
      if (!(scaled < 0x1p63)) {
        throw InputError("pool_scale", strformat("pool_scale = %g overflows a "
                                                 "pool", p.pool_scale));
      }
      return Bytes{static_cast<std::int64_t>(std::llround(scaled))};
    };
    c.pool_per_rack = scale(c.pool_per_rack);
    c.global_pool = scale(c.global_pool);
    // A pool_scale small enough to round a published tier to zero silently
    // turns a tiered study into a flat one — make it loud instead.
    ensure_tiers_survive(c, published, "pool_scale");
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
                           std::int64_t pool_gib, std::int64_t global_gib,
                           std::int32_t gpus_per_node = 0,
                           std::int64_t bb_gib = 0) {
  ClusterConfig c;
  c.name = std::move(name);
  c.total_nodes = nodes;
  c.nodes_per_rack = per_rack;
  c.local_mem_per_node = gib(local_gib);
  c.pool_per_rack = gib(pool_gib);
  c.global_pool = gib(global_gib);
  c.gpus_per_node = gpus_per_node;
  c.bb_capacity = gib(bb_gib);
  return c;
}

// --- decorators --------------------------------------------------------------
// A row's optional per-job rewrite, applied after the model generates the
// job. It must be the identity on submit order: the eager build's map_trace
// re-sort is then the identity and the streaming MappedTraceSource yields
// the identical job sequence.

/// Every job in a 2-hour window submits at the window start. Monotone in
/// submit, so submission order is preserved.
Job quantize_to_burst(Job j) {
  constexpr double kBurstSec = 2.0 * 3600.0;
  j.submit = seconds(std::floor(j.submit.seconds() / kBurstSec) * kBurstSec);
  return j;
}

/// An id-free key over static job fields (NOT the job id, which the eager
/// Trace::make assigns only after the rewrite runs — the streamed and eager
/// constructions must agree field-for-field).
std::uint64_t static_key(const Job& j) {
  return static_cast<std::uint64_t>(j.user) * 2654435761ULL +
         static_cast<std::uint64_t>(j.nodes) * 40503ULL +
         static_cast<std::uint64_t>(j.mem_per_node.count() >> 20);
}

/// Roughly half the jobs become accelerator jobs at the provisioned 4
/// GPUs/node; one in six of the narrow ones demands 8 GPUs/node — twice
/// provisioning — so a rack's pooled devices drain faster than its nodes.
/// The 8-GPU class is capped at 8 nodes (64 devices < the machine's 128) so
/// no job is infeasible-on-empty. Identity on submit.
Job decorate_gpu_contended(Job j) {
  const std::uint64_t key = static_key(j);
  if (key % 2 == 0) {
    j.gpus_per_node = (j.nodes <= 8 && key % 6 == 0) ? 8 : 4;
  }
  return j;
}

/// Every third job reserves min(total footprint, 128 GiB) of burst buffer.
/// 128 GiB < the 256 GiB capacity, so no job is rejected outright. Identity
/// on submit.
Job decorate_bb_staging(Job j) {
  if (static_key(j) % 3 == 0) {
    const Bytes footprint = checked_mul(j.mem_per_node, j.nodes);
    j.bb_bytes = std::min(footprint, gib(std::int64_t{128}));
  }
  return j;
}

// --- the tiled SWF day -------------------------------------------------------

/// The bundled SWF fixture (tests/data/sample.swf), embedded so the replay
/// scenarios need no file path. tests/workload/scenarios_test.cpp asserts
/// this copy stays identical to the on-disk fixture.
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

/// Parse the embedded day once (30 jobs; O(1) w.r.t. replay length).
/// read_swf rebases it, so the day starts at t = 0.
Trace read_sample_day() {
  SwfOptions options;
  options.procs_per_node = 4;
  std::istringstream in(kSampleSwf);
  return read_swf(in, options, "sample.swf").trace;
}

constexpr std::int64_t kSwfReplayPeriodSec = 7200;
/// The embedded day's job count, a constant so that the tiling's i / 30 and
/// i % 30 compile to multiplies: set-up folds every replayed job (10^6 for
/// million-replay) through them.
constexpr std::size_t kSampleDayJobs = 30;

/// The bundled day tiled to `p.jobs` jobs at `p.load`: job i is day job i%N
/// shifted by i/N periods. The day spans less than one period, so the
/// tiling is already in submission order. Workload memory is O(day),
/// independent of p.jobs — what lets the million-job replay run without a
/// million-Job vector; the eager build drains this same source.
std::unique_ptr<TraceSource> swf_replay_source(const ScenarioParams& p,
                                               const std::string& name,
                                               std::int32_t total_nodes) {
  auto day = std::make_shared<const Trace>(read_sample_day());
  DMSCHED_ASSERT(day->size() == kSampleDayJobs, "embedded SWF day resized");
  auto job_at = [day](std::size_t i) {
    const auto copy = static_cast<std::int64_t>(i / kSampleDayJobs);
    Job j = day->jobs()[i % kSampleDayJobs];
    j.submit = j.submit + seconds(kSwfReplayPeriodSec * copy);
    return j;
  };
  // The offered-load prepass: O(p.jobs) time, O(1) memory.
  OfferedLoad load;
  for (std::size_t i = 0; i < p.jobs; ++i) load.add(job_at(i));
  const std::optional<ArrivalScale> scale =
      load.scale_to(p.load, total_nodes);
  return std::make_unique<GeneratorTraceSource>(
      name,
      [job_at, scale, next = std::size_t{0},
       total = p.jobs]() mutable -> std::optional<Job> {
        if (next >= total) return std::nullopt;
        Job j = job_at(next++);
        if (scale) j.submit = (*scale)(j.submit);
        return j;
      },
      p.jobs);
}

/// Materialize a source (ids re-assigned in pull order, as the engine does).
Trace drain(TraceSource& source) {
  std::vector<Job> jobs;
  if (const auto hint = source.size_hint()) jobs.reserve(*hint);
  while (std::optional<Job> j = source.next()) jobs.push_back(*std::move(j));
  return Trace::make(std::move(jobs), source.name());
}

// --- the registry ------------------------------------------------------------

/// A synthetic model and the node size its footprints are drawn against.
struct ModelWorkload {
  WorkloadModel model;
  Bytes reference_mem;
};

/// One scenario as plain data. make_scenario and make_scenario_stream are
/// the only readers; both resolve the params, scale the published machine,
/// then build the workload from the same source and decorator, so the
/// eager and streamed jobs agree by construction.
struct ScenarioRow {
  ScenarioInfo info;
  ScenarioDefaults defaults;
  /// The published machine, before the ScenarioParams machine knobs.
  ClusterConfig cluster;
  /// The workload model; a row without one replays the bundled SWF day,
  /// tiled to the job count, against the machine's own local memory.
  std::optional<ModelWorkload> model{};
  /// Optional per-job rewrite; must be the identity on submit order.
  Job (*decorate)(Job) = nullptr;
};

const std::vector<ScenarioRow>& registry() {
  static const std::vector<ScenarioRow> rows = {
      // The regression baseline whose RunMetrics tests/golden/ pins.
      {.info = {"golden-baseline",
                "the golden regression scenario: oversubscribed mixed "
                "workload on the tiny pooled machine (pinned in tests/golden/)",
                "table 3 (regression baseline)",
                "FCFS worst; EASY/mem-easy/adaptive nearly tied (little "
                "pressure)"},
       .defaults = {400, 20240726, 1.1},
       .cluster = make_cluster("tiny", 16, 4, 64, 32, 128),
       .model = ModelWorkload{WorkloadModel::kMixed, gib(std::int64_t{96})}},
      // Fig. 6's regime: footprints sized for 96 GiB nodes overflow 40 GiB
      // ones, so backfills compete with the queue head for pool bytes and
      // EASY's node-only shadow decides worse than the 2-D reservation.
      {.info = {"memory-stressed",
                "capacity workload sized for 96 GiB nodes on 40 GiB nodes "
                "with modest pools: local memory scarce, pools under pressure",
                "fig. 6 / table 3",
                "mem-easy and adaptive beat EASY (different makespans); FCFS "
                "worst"},
       .defaults = {500, 7, 1.05},
       .cluster = make_cluster("mem-stress", 32, 8, 40, 96, 128),
       .model = ModelWorkload{WorkloadModel::kCapacity, gib(std::int64_t{96})}},
      // The rack pool itself is the bottleneck (no global tier): pool
      // routing and pool-aware reservations dominate.
      {.info = {"pool-contended",
                "ample local memory but small rack pools and no global tier: "
                "the disaggregated pool is the bottleneck",
                "fig. 4",
                "pool-aware policies ahead; EASY starves pool-blocked queue "
                "heads"},
       .defaults = {600, 11, 1.0},
       .cluster = make_cluster("pool-contended", 64, 16, 128, 192, 0),
       .model =
           ModelWorkload{WorkloadModel::kCapacity, gib(std::int64_t{192})}},
      // Diurnal-style submission spikes: deep backfill and reservation churn.
      {.info = {"bursty-arrivals",
                "mixed workload with arrivals quantized into 2-hour waves: "
                "queue fills in bursts and drains between them",
                "fig. 7 (pool timeline under spikes)",
                "backfilling policies (EASY family) far ahead of FCFS; "
                "memory-aware variants ahead on the burst peaks"},
       .defaults = {500, 13, 0.9},
       .cluster = make_cluster("bursty", 32, 8, 96, 96, 96),
       .model = ModelWorkload{WorkloadModel::kMixed, gib(std::int64_t{96})},
       .decorate = &quantize_to_burst},
      // Multi-rack placement, with the global pool as overflow for jobs
      // sized beyond 192 GiB nodes.
      {.info = {"wide-jobs",
                "capability workload: wide, long jobs spanning many racks, "
                "global pool as overflow",
                "fig. 8 (class breakdown, capability column)",
                "conservative close to EASY (few backfill holes); "
                "memory-awareness secondary"},
       .defaults = {400, 17, 0.9},
       .cluster = make_cluster("wide-jobs", 128, 16, 192, 512, 1024),
       .model =
           ModelWorkload{WorkloadModel::kCapability, gib(std::int64_t{256})}},
      // No global safety net: node selection (spreading vs packing vs
      // pool-chasing) is the axis that matters; pool routing is moot.
      {.info = {"rack-local",
                "rack pools only, no global tier: every far byte is one hop "
                "away and rack exhaustion has no safety net (node-selection "
                "study)",
                "fig. 4 (rack-scale provisioning column)",
                "pool-aware/balanced selection ahead of first-fit; routing is "
                "moot without a global tier"},
       .defaults = {500, 23, 1.0},
       .cluster = make_cluster("rack-local", 48, 8, 64, 128, 0),
       .model =
           ModelWorkload{WorkloadModel::kCapacity, gib(std::int64_t{128})}},
      // rack-local's pools and workload (seed and reference node included)
      // plus a thin global tier, so strict locality's rejections carry over
      // and neighbor-rack draws can be measured recovering them. Backs
      // tests/golden/shared_neighbors_test.cpp and the migration knobs.
      {.info = {"shared-neighbors",
                "the rack-local machine plus a thin 96 GiB global tier, same "
                "workload seed: strict locality sheds the same jobs, while "
                "the rack-neighbor-global routing funds them from foreign "
                "rack pools one extra hop away (DOLMA-style distance-graded "
                "sharing)",
                "fig. 4 extension (tests/golden/shared_neighbors_test)",
                "shared-neighbors recovers most of local-first's rejections "
                "at a beta_neighbor-priced dilation; migration knobs re-tier "
                "the recovered bytes at runtime"},
       .defaults = {500, 23, 1.0},
       .cluster = make_cluster("shared-neighbors", 48, 8, 64, 128, 96),
       .model =
           ModelWorkload{WorkloadModel::kCapacity, gib(std::int64_t{128})}},
      // Both distance tiers under pressure: local-first queues (and sheds what
      // no rack pool can fund) while global-fallback starts and dilates.
      {.info = {"tiered-contended",
                "scarce local memory with a contended rack tier AND a global "
                "tier: the regime where placement strategies diverge",
                "fig. 6 (topology variant; "
                "tests/golden/topology_placement_test)",
                "local-first trades queueing for locality (lower "
                "remote-access fraction, larger makespan); global-fallback "
                "the reverse"},
       .defaults = {500, 29, 1.05},
       .cluster = make_cluster("tiered-contended", 64, 8, 48, 96, 192),
       .model = ModelWorkload{WorkloadModel::kCapacity, gib(std::int64_t{96})}},
      // 4 rack-pooled GPUs per node and comfortable memory: the device pool
      // binds, separating the full resource vector from the memory-only view.
      {.info = {"gpu-contended",
                "mixed workload on a 4-GPU-per-node machine (rack-pooled "
                "devices) where half the jobs are accelerator jobs and the "
                "narrow hungry ones demand 8 GPUs/node: rack device pools "
                "drain before nodes do",
                "sec. VI (multi-resource extension; "
                "tests/golden/multi_resource_test)",
                "resource-easy ahead of the GPU-blind mem-easy (blind "
                "backfill picks candidates whose starts then fail device "
                "revalidation)"},
       .defaults = {500, 31, 1.0},
       .cluster = make_cluster("gpu-contended", 32, 8, 96, 96, 96,
                               /*gpus_per_node=*/4),
       .model = ModelWorkload{WorkloadModel::kMixed, gib(std::int64_t{96})},
       .decorate = &decorate_gpu_contended},
      // The cluster-global-axis counterpart of gpu-contended: staging
      // reservations gate the queue where nodes and memory would not.
      {.info = {"bb-staging",
                "capacity workload where a third of the jobs reserve up to "
                "128 GiB of a 256 GiB cluster-global burst buffer for "
                "staging: BB reservations, not nodes or memory, gate the "
                "queue",
                "sec. VI (multi-resource extension)",
                "resource-easy at or ahead of the BB-blind mem-easy; FCFS "
                "worst"},
       .defaults = {500, 37, 1.1},
       .cluster = make_cluster("bb-staging", 32, 8, 96, 96, 96,
                               /*gpus_per_node=*/0, /*bb_gib=*/256),
       .model = ModelWorkload{WorkloadModel::kCapacity, gib(std::int64_t{96})},
       .decorate = &decorate_bb_staging},
      // The SWF-to-scenario path end-to-end: 48 processors at 4 per node
      // make 12 nodes, and footprints up to 16 GiB exceed the 12 GiB local
      // memory, so the replay needs the pools.
      {.info = {"mixed-swf",
                "the bundled 30-job SWF fixture replicated onto a 12-node "
                "machine with 12 GiB local memory (footprints reach 16 GiB)",
                "table 1 (trace-driven validation)",
                "mem-easy at or ahead of EASY; exercises the SWF import path"},
       .defaults = {240, 1, 1.2},
       .cluster = make_cluster("mixed-swf", 12, 4, 12, 24, 32)},
      // The tiled day at month-scale trace sizes, below saturation so
      // throughput measures the event core, not a scheduler walking an
      // ever-growing backlog.
      {.info = {"large-replay",
                "the mixed-swf day replicated to 100k jobs (~9 months of "
                "submissions) on the same 12-node machine: the "
                "sim-throughput workload for million-event traces",
                "sec. V scale claims (month-scale trace replay; "
                "bench/sim_throughput)",
                "same regime as mixed-swf; exists to measure events/sec and "
                "jobs/sec, not to separate policies",
                /*infrastructure=*/true},
       .defaults = {100000, 1, 0.8},
       .cluster = make_cluster("large-replay", 12, 4, 12, 24, 32)},
      // The streaming-ingestion scale target.
      {.info = {"million-replay",
                "the mixed-swf day tiled to 10^6 jobs (~7.6 years of "
                "submissions) on the same 12-node machine: the "
                "streaming-ingestion scale target. Use make_scenario_stream "
                "— the eager build materializes a million-Job trace, the "
                "stream replays it at O(day) workload memory",
                "sec. V scale claims (month-scale replay at bounded memory; "
                "bench/sim_throughput)",
                "same regime as mixed-swf; exists to prove streamed "
                "ingestion, not to separate policies",
                /*infrastructure=*/true},
       .defaults = {1000000, 1, 0.8},
       .cluster = make_cluster("million-replay", 12, 4, 12, 24, 32)},
  };
  return rows;
}

const ScenarioRow& find_row(const std::string& name) {
  for (const ScenarioRow& e : registry()) {
    if (e.info.name == name) return e;
  }
  std::string known;
  for (const ScenarioRow& e : registry()) {
    if (!known.empty()) known += ", ";
    known += e.info.name;
  }
  throw InputError("scenario",
                   "unknown scenario \"" + name + "\" (known: " + known + ")");
}

/// What both drivers share: the row's metadata on the resolved, scaled
/// machine, with no workload yet.
template <class Built>
Built start(const ScenarioRow& row, const ScenarioParams& p) {
  Built s;
  s.info = row.info;
  s.cluster = scale_cluster(row.cluster, p);
  s.workload_reference_mem =
      row.model ? row.model->reference_mem : s.cluster.local_mem_per_node;
  s.remote_penalty = p.remote_penalty;
  return s;
}

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const ScenarioRow& e : registry()) names.push_back(e.info.name);
  return names;
}

bool scenario_exists(const std::string& name) {
  for (const ScenarioRow& e : registry()) {
    if (e.info.name == name) return true;
  }
  return false;
}

const ScenarioInfo& scenario_info(const std::string& name) {
  return find_row(name).info;
}

Scenario make_scenario(const std::string& name, const ScenarioParams& params) {
  const ScenarioRow& row = find_row(name);
  const ScenarioParams p = resolve(params, row.defaults);
  Scenario s = start<Scenario>(row, p);
  if (!row.model) {
    s.trace = drain(*swf_replay_source(p, name, s.cluster.total_nodes));
    return s;
  }
  s.trace = make_model_trace(row.model->model, p.jobs, p.seed,
                             s.cluster.total_nodes, row.model->reference_mem,
                             p.load);
  if (row.decorate != nullptr) s.trace = map_trace(s.trace, row.decorate);
  return s;
}

ScenarioStream make_scenario_stream(const std::string& name,
                                    const ScenarioParams& params) {
  const ScenarioRow& row = find_row(name);
  const ScenarioParams p = resolve(params, row.defaults);
  ScenarioStream s = start<ScenarioStream>(row, p);
  if (!row.model) {
    s.source = swf_replay_source(p, name, s.cluster.total_nodes);
    return s;
  }
  s.source = make_model_source(row.model->model, p.jobs, p.seed,
                               s.cluster.total_nodes, row.model->reference_mem,
                               p.load);
  if (row.decorate != nullptr) {
    s.source = std::make_unique<MappedTraceSource>(std::move(s.source),
                                                   row.decorate);
  }
  return s;
}

}  // namespace dmsched
