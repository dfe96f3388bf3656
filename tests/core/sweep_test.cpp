#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "cluster/system_config.hpp"
#include "testing/builders.hpp"

namespace dmsched {
namespace {

ExperimentConfig small_config(SchedulerKind kind) {
  ExperimentConfig c;
  c.cluster = testing::tiny_cluster(gib(std::int64_t{64}));
  c.workload_reference_mem = gib(std::int64_t{64});
  c.scheduler = kind;
  c.model = WorkloadModel::kMixed;
  c.jobs = 150;
  c.seed = 5;
  c.target_load = 0.8;
  return c;
}

TEST(Sweep, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for_chunked(100, {.threads = 4, .chunk = 1},
                       [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Sweep, ParallelForZeroCount) {
  parallel_for_chunked(0, {.threads = 4, .chunk = 1},
                       [](std::size_t) { FAIL() << "must not run"; });
}

TEST(Sweep, ParallelForSingleThread) {
  std::vector<int> order;
  parallel_for_chunked(5, {.threads = 1, .chunk = 1}, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Sweep, ResultsMatchSequentialRuns) {
  const std::vector<ExperimentConfig> configs = {
      small_config(SchedulerKind::kFcfs),
      small_config(SchedulerKind::kEasy),
      small_config(SchedulerKind::kMemAwareEasy)};
  const Trace trace = make_workload(configs[0]);
  const auto parallel = run_sweep_on_trace(configs, trace, {.threads = 3});
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const RunMetrics solo = run_experiment(configs[i], trace);
    EXPECT_DOUBLE_EQ(parallel[i].mean_wait_hours, solo.mean_wait_hours) << i;
    EXPECT_DOUBLE_EQ(parallel[i].node_utilization, solo.node_utilization) << i;
    EXPECT_EQ(parallel[i].completed, solo.completed) << i;
  }
}

TEST(Sweep, SharedTraceVariantUsesGivenTrace) {
  const auto config = small_config(SchedulerKind::kEasy);
  const Trace trace = make_workload(config);
  const auto results =
      run_sweep_on_trace({config, config}, trace, {.threads = 2});
  ASSERT_EQ(results.size(), 2u);
  // identical config + identical trace => identical results
  EXPECT_DOUBLE_EQ(results[0].mean_wait_hours, results[1].mean_wait_hours);
  EXPECT_EQ(results[0].completed, results[1].completed);
}

TEST(Sweep, LabelPropagates) {
  auto config = small_config(SchedulerKind::kFcfs);
  config.label = "my-label";
  const auto results =
      run_sweep_on_trace({config}, make_workload(config), {.threads = 1});
  EXPECT_EQ(results[0].label, "my-label");
}

TEST(Sweep, ChunkedCoversAllIndicesForEveryChunkSize) {
  constexpr std::size_t kCount = 257;  // prime: never divides evenly
  // 300 exceeds the count; SIZE_MAX would overflow a naive ceil-divide.
  for (const std::size_t chunk :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{13},
        std::size_t{64}, std::size_t{300}, SIZE_MAX}) {
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for_chunked(kCount, SweepOptions{4, chunk},
                         [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "chunk " << chunk << " index " << i;
    }
  }
}

TEST(Sweep, ChunkedRethrowsTheLowestIndexDeterministically) {
  // When several workers throw, the surfaced exception is the lowest
  // index's — never whichever worker reported first. All-throw makes every
  // repeat deterministic: chunk 0 is always claimed before wind-down.
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      parallel_for_chunked(128, SweepOptions{8, 4}, [](std::size_t i) {
        throw std::out_of_range("boom at " + std::to_string(i));
      });
      FAIL() << "must rethrow";
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(), "boom at 0") << "repeat " << repeat;
    }
  }
}

TEST(Sweep, ChunkedPropagatesExceptionsMidChunk) {
  // A throw from the middle of a chunk abandons the rest of that chunk and
  // the remaining chunks, and reaches the caller.
  std::atomic<int> ran{0};
  EXPECT_THROW(
      parallel_for_chunked(100, SweepOptions{4, 16},
                           [&](std::size_t i) {
                             ran.fetch_add(1);
                             if (i == 20) throw std::runtime_error("boom");
                           }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 100);
}

TEST(Sweep, ChunkSizeDoesNotChangeResults) {
  const std::vector<ExperimentConfig> configs = {
      small_config(SchedulerKind::kFcfs),
      small_config(SchedulerKind::kEasy),
      small_config(SchedulerKind::kConservative),
      small_config(SchedulerKind::kMemAwareEasy),
      small_config(SchedulerKind::kAdaptive)};
  const Trace trace = make_workload(configs.front());
  const auto serial =
      run_sweep_on_trace(configs, trace, SweepOptions{1, 1});
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{2},
                                  std::size_t{3}, std::size_t{100}}) {
    const auto chunked =
        run_sweep_on_trace(configs, trace, SweepOptions{0, chunk});
    ASSERT_EQ(chunked.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(chunked[i].makespan.usec(), serial[i].makespan.usec())
          << "chunk " << chunk << " config " << i;
      EXPECT_EQ(chunked[i].mean_wait_hours, serial[i].mean_wait_hours)
          << "chunk " << chunk << " config " << i;
      EXPECT_EQ(chunked[i].completed, serial[i].completed)
          << "chunk " << chunk << " config " << i;
    }
  }
}

}  // namespace
}  // namespace dmsched
