// PerfettoTraceWriter parse-back: a real traced run re-parses cleanly, the
// JSON escaper survives hostile names (fuzzed via seeded Rng), and the
// trace_check validator rejects each class of malformed document it exists
// to catch.
#include "obs/perfetto.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "obs/trace_check.hpp"
#include "workload/scenarios.hpp"

namespace dmsched::obs {
namespace {

TEST(PerfettoEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(PerfettoTraceWriter::escape("easy/tiny"), "easy/tiny");
  EXPECT_EQ(PerfettoTraceWriter::escape(""), "");
}

TEST(PerfettoEscapeTest, EscapesJsonMetacharacters) {
  EXPECT_EQ(PerfettoTraceWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(PerfettoTraceWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(PerfettoTraceWriter::escape("a\nb\rc\td"), "a\\nb\\rc\\td");
}

TEST(PerfettoEscapeTest, ControlBytesBecomeUnicodeEscapes) {
  EXPECT_EQ(PerfettoTraceWriter::escape(std::string_view("\x01", 1)),
            "\\u0001");
  EXPECT_EQ(PerfettoTraceWriter::escape(std::string_view("\x1f", 1)),
            "\\u001f");
  // 0x20 (space) and above pass through unescaped.
  EXPECT_EQ(PerfettoTraceWriter::escape(" ~"), " ~");
}

// A real (small) run through the engine must produce a document the
// validator accepts, with every async span closed and an event count that
// matches what the writer says it wrote.
TEST(PerfettoWriterTest, RealRunParsesBack) {
  Scenario scenario = make_scenario("golden-baseline", {.jobs = 80});
  ExperimentConfig config =
      scenario_experiment(scenario, SchedulerKind::kEasy);

  const std::string path = ::testing::TempDir() + "perfetto_real_run.json";
  PerfettoTraceWriter writer(path);
  ASSERT_TRUE(writer.ok());
  config.engine.sink = &writer;
  config.engine.trace_detail = TraceDetail::kFull;
  RunMetrics m = run_experiment(config, scenario.trace);
  writer.close();
  ASSERT_TRUE(writer.ok());

  TraceCheckResult r = check_trace_file(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.events, writer.events_written());
  // Every queued/run span the engine opened was closed.
  EXPECT_EQ(r.async_begin, r.async_end);
  EXPECT_GT(r.async_begin, 0u);
  // One "X" pass span per scheduler pass, plus gauge counters at kFull.
  EXPECT_GT(r.complete, 0u);
  EXPECT_GT(r.counter, 0u);
  EXPECT_GT(r.metadata, 0u);
  EXPECT_GT(m.completed, 0u);
}

// Seeded fuzz: hostile bytes (quotes, backslashes, control characters,
// newlines) in every string the writer interpolates — run label, cluster
// name, pass kind — must still yield a valid document. Each round uses
// strictly increasing timestamps so every (pid, tid) track stays monotonic,
// mirroring the engine's nondecreasing emission order.
TEST(PerfettoWriterTest, FuzzedNamesStayValidJson) {
  Rng rng(20260807);
  auto hostile = [&rng]() {
    static const char pool[] =
        "\"\\\n\r\t\x01\x02\x1f abcXYZ{}[]:,\x7f/\b\f";
    const std::uint64_t len = rng.uniform_int(0, 24);
    std::string s;
    for (std::uint64_t i = 0; i < len; ++i)
      s += pool[rng.uniform_int(0, sizeof pool - 2)];
    return s;
  };

  for (int trial = 0; trial < 8; ++trial) {
    const std::string path = ::testing::TempDir() + "perfetto_fuzz_" +
                             std::to_string(trial) + ".json";
    PerfettoTraceWriter writer(path);
    ASSERT_TRUE(writer.ok());

    RunInfo info;
    info.label = hostile();
    info.cluster_name = hostile();
    info.racks = 2;
    info.total_nodes = 4;
    writer.on_run_begin(info);

    std::int64_t t = 0;
    const int rounds = 1 + static_cast<int>(rng.uniform_int(0, 9));
    for (int i = 0; i < rounds; ++i, t += 10) {
      const auto job = static_cast<std::uint32_t>(i);
      const auto rack = static_cast<std::int32_t>(rng.uniform_int(0, 1));
      writer.on_job_queued({.job = job,
                            .submit = usec(t),
                            .nodes = 2,
                            .mem_per_node_gib = 1.0});
      writer.on_job_started({.job = job,
                             .submit = usec(t),
                             .start = usec(t + 1),
                             .rack = rack,
                             .nodes = 2});
      const std::string kind = hostile();
      PassSpan pass;
      pass.seq = static_cast<std::uint64_t>(i);
      pass.at = usec(t + 2);
      pass.kind = kind.c_str();
      pass.queue_depth = 1;
      writer.on_pass(pass);
      GaugeSample g;
      g.at = usec(t + 3);
      g.busy_nodes = 2;
      writer.on_gauges(g);
      writer.on_job_finished({.job = job,
                              .start = usec(t + 1),
                              .end = usec(t + 4),
                              .rack = rack,
                              .killed = (i % 2) == 0});
    }
    writer.on_run_end(usec(t));
    writer.close();
    ASSERT_TRUE(writer.ok());

    TraceCheckResult r = check_trace_file(path);
    ASSERT_TRUE(r.ok) << "trial " << trial << ": " << r.error;
    EXPECT_EQ(r.async_begin, r.async_end) << "trial " << trial;
    EXPECT_EQ(r.events, writer.events_written()) << "trial " << trial;
  }
}

// --- validator negative space -------------------------------------------
// The parse-back guarantee is only as strong as what check_trace_json
// rejects; pin each rule with a minimal counterexample.

TEST(TraceCheckTest, AcceptsMinimalDocuments) {
  EXPECT_TRUE(check_trace_json(R"({"traceEvents":[]})").ok);
  TraceCheckResult r = check_trace_json(
      R"({"traceEvents":[
        {"ph":"b","cat":"q","id":1,"pid":1,"tid":0,"ts":5,"name":"j"},
        {"ph":"e","cat":"q","id":1,"pid":1,"tid":0,"ts":9,"name":"j"}]})");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.events, 2u);
  EXPECT_EQ(r.async_begin, 1u);
  EXPECT_EQ(r.async_end, 1u);
}

TEST(TraceCheckTest, RejectsUnclosedAsyncSpan) {
  TraceCheckResult r = check_trace_json(
      R"({"traceEvents":[
        {"ph":"b","cat":"q","id":1,"pid":1,"tid":0,"ts":0,"name":"j"}]})");
  EXPECT_FALSE(r.ok);
}

TEST(TraceCheckTest, RejectsEndWithoutBegin) {
  EXPECT_FALSE(check_trace_json(
                   R"({"traceEvents":[
        {"ph":"E","pid":1,"tid":0,"ts":3,"name":"x"}]})")
                   .ok);
}

TEST(TraceCheckTest, RejectsTimeGoingBackwardsOnOneTrack) {
  TraceCheckResult r = check_trace_json(
      R"({"traceEvents":[
        {"ph":"i","pid":1,"tid":0,"ts":10,"name":"a"},
        {"ph":"i","pid":1,"tid":0,"ts":4,"name":"b"}]})");
  EXPECT_FALSE(r.ok);
  // ...but distinct tracks are independent clocks.
  EXPECT_TRUE(check_trace_json(
                  R"({"traceEvents":[
        {"ph":"i","pid":1,"tid":0,"ts":10,"name":"a"},
        {"ph":"i","pid":1,"tid":1,"ts":4,"name":"b"}]})")
                  .ok);
}

TEST(TraceCheckTest, RejectsNegativeDuration) {
  EXPECT_FALSE(check_trace_json(
                   R"({"traceEvents":[
        {"ph":"X","pid":1,"tid":0,"ts":0,"dur":-5,"name":"x"}]})")
                   .ok);
}

TEST(TraceCheckTest, RejectsCounterWithoutNumericSeries) {
  EXPECT_FALSE(check_trace_json(
                   R"({"traceEvents":[
        {"ph":"C","pid":1,"tid":0,"ts":0,"name":"c","args":{"v":"hi"}}]})")
                   .ok);
}

TEST(TraceCheckTest, RejectsMalformedJson) {
  EXPECT_FALSE(check_trace_json(R"({"traceEvents":[)").ok);
  EXPECT_FALSE(check_trace_json("").ok);
  EXPECT_FALSE(check_trace_json(R"([1,2,3])").ok);
}

TEST(TraceCheckTest, RejectsTrailingBytesAfterRoot) {
  EXPECT_FALSE(check_trace_json(R"({"traceEvents":[]} extra)").ok);
}

TEST(TraceCheckTest, ReportsMissingFileAsInvalid) {
  TraceCheckResult r = check_trace_file("/nonexistent-dir/zzz/trace.json");
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

}  // namespace
}  // namespace dmsched::obs
