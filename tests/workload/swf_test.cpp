#include "workload/swf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/input_error.hpp"
#include "testing/builders.hpp"
#include "testing/trace_io.hpp"

namespace dmsched {
namespace {

// job_id submit wait runtime alloc_procs avg_cpu used_mem_kb req_procs
// req_time req_mem_kb status user group app queue partition prev think
constexpr const char* kTwoJobTrace =
    "; Comment header\n"
    "; UnixStartTime: 0\n"
    "1 0 10 3600 64 -1 2097152 64 7200 2097152 1 3 1 1 1 -1 -1 -1\n"
    "2 600 -1 1800 -1 -1 -1 32 3600 1048576 1 4 1 1 1 -1 -1 -1\n";

TEST(Swf, ParsesWellFormedTrace) {
  std::istringstream in(kTwoJobTrace);
  const auto result = read_swf(in, SwfOptions{}, "t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.jobs_accepted, 2u);
  EXPECT_EQ(result.lines_malformed, 0u);
  ASSERT_EQ(result.trace.size(), 2u);

  const Job& j0 = result.trace.job(0);
  EXPECT_EQ(j0.submit, SimTime{});  // rebased
  EXPECT_EQ(j0.nodes, 64);          // procs_per_node = 1
  EXPECT_EQ(j0.runtime, seconds(std::int64_t{3600}));
  EXPECT_EQ(j0.walltime, seconds(std::int64_t{7200}));
  // 2 GiB per proc in KB
  EXPECT_EQ(j0.mem_per_node, gib(std::int64_t{2}));
  EXPECT_EQ(j0.user, 3);
}

TEST(Swf, ProcsPerNodeConversionRoundsUp) {
  std::istringstream in(
      "1 0 -1 100 -1 -1 -1 33 200 1048576 1 1 1 1 1 -1 -1 -1\n");
  SwfOptions opts;
  opts.procs_per_node = 16;
  const auto result = read_swf(in, opts, "t");
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace.job(0).nodes, 3);  // ceil(33/16)
  // per-node memory = per-proc × procs_per_node
  EXPECT_EQ(result.trace.job(0).mem_per_node, gib(std::int64_t{16}));
}

TEST(Swf, MissingMemoryUsesDefault) {
  std::istringstream in("1 0 -1 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n");
  SwfOptions opts;
  opts.default_mem_per_node = gib(std::int64_t{8});
  const auto result = read_swf(in, opts, "t");
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace.job(0).mem_per_node, gib(std::int64_t{8}));
}

TEST(Swf, UsedMemoryFallsBackWhenRequestMissing) {
  std::istringstream in(
      "1 0 -1 100 4 -1 1048576 4 200 -1 1 1 1 1 1 -1 -1 -1\n");
  const auto result = read_swf(in, SwfOptions{}, "t");
  EXPECT_EQ(result.trace.job(0).mem_per_node, gib(std::int64_t{1}));
}

TEST(Swf, MissingRequestTimeUsesFallbackFactor) {
  std::istringstream in("1 0 -1 1000 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\n");
  SwfOptions opts;
  opts.walltime_fallback_factor = 2.0;
  const auto result = read_swf(in, opts, "t");
  EXPECT_EQ(result.trace.job(0).walltime, seconds(std::int64_t{2000}));
}

TEST(Swf, RuntimeOverrunClampsWalltimeUp) {
  // runtime 500 > requested 100: importer clamps walltime to runtime
  std::istringstream in("1 0 -1 500 4 -1 -1 4 100 -1 1 1 1 1 1 -1 -1 -1\n");
  const auto result = read_swf(in, SwfOptions{}, "t");
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace.job(0).walltime, result.trace.job(0).runtime);
}

TEST(Swf, FiltersNonCompletedJobs) {
  std::istringstream in(
      "1 0 -1 100 4 -1 -1 4 200 -1 0 1 1 1 1 -1 -1 -1\n"   // failed
      "2 0 -1 100 4 -1 -1 4 200 -1 5 1 1 1 1 -1 -1 -1\n"   // cancelled
      "3 0 -1 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n"); // completed
  const auto result = read_swf(in, SwfOptions{}, "t");
  EXPECT_EQ(result.jobs_accepted, 1u);
  EXPECT_EQ(result.jobs_skipped, 2u);
}

TEST(Swf, KeepsAllStatusesWhenFilterDisabled) {
  std::istringstream in(
      "1 0 -1 100 4 -1 -1 4 200 -1 0 1 1 1 1 -1 -1 -1\n"
      "2 0 -1 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n");
  SwfOptions opts;
  opts.completed_only = false;
  const auto result = read_swf(in, opts, "t");
  EXPECT_EQ(result.jobs_accepted, 2u);
}

TEST(Swf, SkipsZeroRuntimeAndZeroProcs) {
  std::istringstream in(
      "1 0 -1 0 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n"
      "2 0 -1 100 0 -1 -1 0 200 -1 1 1 1 1 1 -1 -1 -1\n");
  const auto result = read_swf(in, SwfOptions{}, "t");
  EXPECT_EQ(result.jobs_accepted, 0u);
  EXPECT_EQ(result.jobs_skipped, 2u);
}

TEST(Swf, CountsMalformedLines) {
  std::istringstream in(
      "garbage line\n"
      "1 2 3\n"  // too few fields
      "1 0 -1 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n");
  const auto result = read_swf(in, SwfOptions{}, "t");
  EXPECT_EQ(result.lines_malformed, 2u);
  EXPECT_EQ(result.jobs_accepted, 1u);
}

TEST(Swf, OutOfRangeFieldsAreMalformed) {
  // tests/data/out_of_range.swf: one good line, then lines with 3e9 and
  // 2^32 + 4 procs, 1e16 KB per proc, a 1e17 s submit and a 1e300 s
  // runtime. Each parses as numbers, but none fits the simulator's int32
  // node count, int64 byte count or clock; none may wrap, abort or count
  // as a filtered job.
  const auto result = read_swf_file(
      std::string(DMSCHED_TEST_DATA_DIR) + "/out_of_range.swf", SwfOptions{});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.lines_malformed, 5u);
  EXPECT_EQ(result.jobs_skipped, 0u);
  ASSERT_EQ(result.jobs_accepted, 1u);
  EXPECT_EQ(result.trace.job(0).nodes, 4);
  EXPECT_EQ(result.trace.job(0).runtime, seconds(std::int64_t{100}));
}

TEST(Swf, NonPositiveProcsPerNodeThrowsNamingTheField) {
  std::istringstream in("1 0 -1 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n");
  SwfOptions opts;
  opts.procs_per_node = 0;
  try {
    (void)read_swf(in, opts, "t");
    ADD_FAILURE() << "no exception";
  } catch (const InputError& e) {
    EXPECT_EQ(e.field(), "procs_per_node");
  }
}

TEST(Swf, IgnoresCommentsAndBlankLines) {
  std::istringstream in(
      ";;; header\n"
      "\n"
      "   \n"
      "1 0 -1 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n");
  const auto result = read_swf(in, SwfOptions{}, "t");
  EXPECT_EQ(result.lines_malformed, 0u);
  EXPECT_EQ(result.jobs_accepted, 1u);
}

TEST(Swf, BundledSampleTraceLoads) {
  SwfOptions opts;
  opts.procs_per_node = 4;  // the sample machine has 4-core nodes
  const auto result =
      read_swf_file(std::string(DMSCHED_TEST_DATA_DIR) + "/sample.swf", opts);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.jobs_accepted, 30u);
  EXPECT_EQ(result.lines_malformed, 0u);
  const Trace& t = result.trace;
  ASSERT_EQ(t.size(), 30u);
  // job 1: 8 procs -> 2 nodes; 4 GiB/proc -> 16 GiB/node
  EXPECT_EQ(t.job(0).nodes, 2);
  EXPECT_EQ(t.job(0).mem_per_node, gib(std::int64_t{16}));
  EXPECT_EQ(t.job(0).runtime, seconds(std::int64_t{3600}));
  // the widest job (48 procs) becomes 12 nodes
  std::int32_t max_nodes = 0;
  for (const Job& j : t.jobs()) max_nodes = std::max(max_nodes, j.nodes);
  EXPECT_EQ(max_nodes, 12);
  // span: submissions 0..6300 s
  EXPECT_DOUBLE_EQ(t.span().seconds(), 6300.0);
}

TEST(Swf, BundledSampleIsSimulatable) {
  const auto result = read_swf_file(
      std::string(DMSCHED_TEST_DATA_DIR) + "/sample.swf", SwfOptions{});
  ASSERT_TRUE(result.ok());
  // every job has the invariants the engine relies on
  for (const Job& j : result.trace.jobs()) {
    EXPECT_GT(j.nodes, 0);
    EXPECT_GE(j.walltime, j.runtime);
    EXPECT_GT(j.mem_per_node, Bytes{0});
  }
}

TEST(Swf, MissingFileIsHardError) {
  const auto result = read_swf_file("/no/such/file.swf", SwfOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

TEST(Swf, RoundTripPreservesJobs) {
  using testing::job;
  const Trace original = testing::trace_of(
      {job(0).at_h(0.0).nodes(4).mem_gib(32).runtime_h(1.0).walltime_h(2.0),
       job(1).at_h(1.0).nodes(1).mem_gib(100).runtime_h(0.5).walltime_h(1.0)});
  std::stringstream buffer;
  const SwfOptions opts;
  testing::write_swf(buffer, original, opts);
  const auto result = read_swf(buffer, opts, "roundtrip");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.trace.size(), original.size());
  for (JobId i = 0; i < original.size(); ++i) {
    const Job& a = original.job(i);
    const Job& b = result.trace.job(i);
    EXPECT_EQ(a.submit.usec(), b.submit.usec());
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.runtime.usec(), b.runtime.usec());
    EXPECT_EQ(a.walltime.usec(), b.walltime.usec());
    // memory rounds to whole KiB in SWF; these are exact GiB
    EXPECT_EQ(a.mem_per_node, b.mem_per_node);
  }
}

}  // namespace
}  // namespace dmsched
