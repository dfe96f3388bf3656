// SWF round-trip fuzz: randomized traces written by the write_swf oracle
// and read back through read_swf must reproduce every job field exactly, at
// multiple procs-per-node conversions. Plus the error-handling contract of
// the reader on a messy byte stream: malformed lines, truncation, and
// mid-line EOF are counted (lines_malformed / jobs_skipped), never fatal.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "testing/trace_io.hpp"
#include "workload/swf.hpp"
#include "workload/trace.hpp"

namespace dmsched {
namespace {

// SWF serializes whole seconds and whole KB-per-proc, so an exactly
// round-trippable job has: integral-second times, memory a multiple of
// 1024 * procs_per_node bytes, the default sensitivity (SWF has no such
// field), and a non-negative user. The first submit must be 0 because the
// reader rebases onto the first accepted job.
Trace fuzz_trace(std::uint64_t seed, std::size_t jobs,
                 std::int32_t procs_per_node) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> gap_s(0, 3600);
  std::uniform_int_distribution<std::int32_t> nodes_d(1, 32);
  std::uniform_int_distribution<std::int64_t> mem_kb_per_proc(1, 4 * 1024 * 1024);
  std::uniform_int_distribution<std::int64_t> runtime_s(1, 86400);
  std::uniform_int_distribution<std::int64_t> slack_s(0, 7200);
  std::uniform_int_distribution<std::int32_t> user_d(0, 9);

  std::vector<Job> out;
  out.reserve(jobs);
  std::int64_t submit_s = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    if (i > 0) submit_s += gap_s(rng);
    Job j;
    j.id = static_cast<JobId>(i);
    j.submit = seconds(submit_s);
    j.nodes = nodes_d(rng);
    j.mem_per_node =
        Bytes{mem_kb_per_proc(rng) * 1024 * procs_per_node};
    j.runtime = seconds(runtime_s(rng));
    j.walltime = j.runtime + seconds(slack_s(rng));
    j.user = user_d(rng);
    out.push_back(j);
  }
  return Trace::make(std::move(out), "fuzz");
}

void expect_job_equal(const Job& a, const Job& b, std::size_t i) {
  SCOPED_TRACE("job " + std::to_string(i));
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.submit.usec(), b.submit.usec());
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.mem_per_node.count(), b.mem_per_node.count());
  EXPECT_EQ(a.runtime.usec(), b.runtime.usec());
  EXPECT_EQ(a.walltime.usec(), b.walltime.usec());
  EXPECT_EQ(a.sensitivity, b.sensitivity);
  EXPECT_EQ(a.user, b.user);
}

TEST(SwfRoundTripFuzz, ReaderReproducesEveryField) {
  for (const std::int32_t ppn : {1, 4}) {
    SwfOptions opts;
    opts.procs_per_node = ppn;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("ppn " + std::to_string(ppn) + " seed " +
                   std::to_string(seed));
      const Trace original = fuzz_trace(seed, 50, ppn);
      std::stringstream buffer;
      testing::write_swf(buffer, original, opts);
      const SwfResult round = read_swf(buffer, opts, "fuzz");
      ASSERT_TRUE(round.ok()) << round.error;
      EXPECT_EQ(round.jobs_accepted, original.size());
      EXPECT_EQ(round.lines_malformed, 0u);
      EXPECT_EQ(round.jobs_skipped, 0u);
      ASSERT_EQ(round.trace.size(), original.size());
      for (JobId i = 0; i < original.size(); ++i) {
        expect_job_equal(original.job(i), round.trace.job(i), i);
      }
    }
  }
}

// --- error-handling contract -------------------------------------------------

constexpr const char* kGoodLine =
    "1 0 -1 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n";
constexpr const char* kLaterGoodLine =
    "2 60 -1 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n";

SwfResult read_text(const std::string& input) {
  std::istringstream in(input);
  return read_swf(in, SwfOptions{}, "t");
}

TEST(StreamingSwfErrors, MalformedLinesAreCountedAndSkipped) {
  const SwfResult r = read_text(std::string("garbage here\n") + kGoodLine +
                                "1 2 3\n" + kLaterGoodLine);
  EXPECT_TRUE(r.ok()) << r.error;  // malformed is never fatal
  EXPECT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.jobs_accepted, 2u);
  EXPECT_EQ(r.lines_malformed, 2u);
  EXPECT_EQ(r.jobs_skipped, 0u);
  EXPECT_EQ(r.lines_total, 4u);
}

TEST(StreamingSwfErrors, FilteredJobsCountAsSkippedNotMalformed) {
  const SwfResult r = read_text(
      std::string(kGoodLine) +
      "2 60 -1 100 4 -1 -1 4 200 -1 0 1 1 1 1 -1 -1 -1\n"   // failed status
      "3 90 -1 0 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1\n");   // zero runtime
  EXPECT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.jobs_skipped, 2u);
  EXPECT_EQ(r.lines_malformed, 0u);
}

TEST(StreamingSwfErrors, TruncatedFinalLineIsMalformedNotFatal) {
  // A file cut mid-record: the last line has only 5 of 18 fields and no
  // trailing newline. Jobs before the cut still load; the fragment is
  // accounted as malformed; the read ends cleanly.
  const SwfResult r =
      read_text(std::string(kGoodLine) + kLaterGoodLine + "3 120 -1 100 4");
  EXPECT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.lines_malformed, 1u);
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(StreamingSwfErrors, CompleteFinalLineWithoutNewlineParses) {
  // Mid-line EOF after a *complete* record: all 18 fields present, no '\n'.
  const SwfResult r = read_text(
      std::string(kGoodLine) +
      "2 60 -1 100 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1");
  EXPECT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.lines_malformed, 0u);
}

TEST(StreamingSwfErrors, AccountingIsExactOnMessyInput) {
  // Every line lands in exactly one bucket: comments and blank lines count
  // only toward lines_total.
  const SwfResult r = read_text(
      std::string(";; header\n") + "not a job\n" + kGoodLine + "\n" +
      "2 60 -1 100 0 -1 -1 0 200 -1 1 1 1 1 1 -1 -1 -1\n" +  // zero procs
      kLaterGoodLine + "junk");
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.lines_total, 7u);
  EXPECT_EQ(r.jobs_accepted, 2u);
  EXPECT_EQ(r.jobs_skipped, 1u);
  EXPECT_EQ(r.lines_malformed, 2u);
  EXPECT_EQ(r.trace.size(), 2u);
}

}  // namespace
}  // namespace dmsched
