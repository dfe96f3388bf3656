// PerfettoTraceWriter parse-back: a real traced run re-parses cleanly, the
// JSON escaper survives hostile names (fuzzed via seeded Rng), and the
// parse-back checker, tests/obs/check_trace.py (Python's json module, not
// code shared with the writer), rejects each class of malformed document it
// exists to catch.
#include "obs/perfetto.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "workload/scenarios.hpp"

namespace dmsched::obs {
namespace {

/// The checker's verdict on one file: exit status (0 valid, 1 invalid) and
/// its one-line report.
struct CheckRun {
  int status = -1;
  std::string report;
};

CheckRun check_trace_file(const std::string& path) {
  const std::string command = std::string("'") + DMSCHED_PYTHON + "' '" +
                              DMSCHED_CHECK_TRACE + "' '" + path + "' 2>&1";
  CheckRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) run.report += buf;
  const int raw = pclose(pipe);
  if (raw != -1 && WIFEXITED(raw)) run.status = WEXITSTATUS(raw);
  return run;
}

/// Writes `json` to a per-test file and checks it.
CheckRun check_trace_json(std::string_view json) {
  const std::string path =
      ::testing::TempDir() + "check_trace_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
  std::ofstream(path, std::ios::binary) << json;
  return check_trace_file(path);
}

/// The checker ran and rejected the document with a diagnostic (a crash of
/// the script would also exit 1, but prints no INVALID line).
::testing::AssertionResult rejects(std::string_view json) {
  const CheckRun run = check_trace_json(json);
  if (run.status == 1 && run.report.find(": INVALID: ") != std::string::npos)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "status " << run.status << ": " << run.report;
}

::testing::AssertionResult accepts(std::string_view json) {
  const CheckRun run = check_trace_json(json);
  if (run.status == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "status " << run.status << ": " << run.report;
}

/// Per-phase counts parsed from a valid report.
struct TraceCounts {
  std::size_t events = 0, async_begin = 0, async_end = 0, complete = 0,
              counter = 0, instant = 0, metadata = 0;
};

TraceCounts counts_of(const CheckRun& run) {
  TraceCounts c;
  const auto at = run.report.find(": ok, ");
  EXPECT_NE(at, std::string::npos) << run.report;
  if (at == std::string::npos) return c;
  const int parsed = std::sscanf(
      run.report.c_str() + at,
      ": ok, %zu events (async %zu/%zu, complete %zu, counter %zu, "
      "instant %zu, metadata %zu)",
      &c.events, &c.async_begin, &c.async_end, &c.complete, &c.counter,
      &c.instant, &c.metadata);
  EXPECT_EQ(parsed, 7) << run.report;
  return c;
}

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
// checker accepts, with every async span closed and an event count that
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

  const CheckRun run = check_trace_file(path);
  ASSERT_EQ(run.status, 0) << run.report;
  const TraceCounts r = counts_of(run);
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

    const CheckRun run = check_trace_file(path);
    ASSERT_EQ(run.status, 0) << "trial " << trial << ": " << run.report;
    const TraceCounts r = counts_of(run);
    EXPECT_EQ(r.async_begin, r.async_end) << "trial " << trial;
    EXPECT_EQ(r.events, writer.events_written()) << "trial " << trial;
  }
}

// --- checker negative space ---------------------------------------------
// The parse-back guarantee is only as strong as what the checker rejects;
// pin each rule with a minimal counterexample. A rejection exits 1.

TEST(TraceCheckTest, AcceptsMinimalDocuments) {
  EXPECT_TRUE(accepts(R"({"traceEvents":[]})"));
  const CheckRun run = check_trace_json(
      R"({"traceEvents":[
        {"ph":"b","cat":"q","id":1,"pid":1,"tid":0,"ts":5,"name":"j"},
        {"ph":"e","cat":"q","id":1,"pid":1,"tid":0,"ts":9,"name":"j"}]})");
  ASSERT_EQ(run.status, 0) << run.report;
  const TraceCounts r = counts_of(run);
  EXPECT_EQ(r.events, 2u);
  EXPECT_EQ(r.async_begin, 1u);
  EXPECT_EQ(r.async_end, 1u);
}

TEST(TraceCheckTest, RejectsUnclosedAsyncSpan) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"b","cat":"q","id":1,"pid":1,"tid":0,"ts":0,"name":"j"}]})"));
}

TEST(TraceCheckTest, RejectsEndWithoutBegin) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"E","pid":1,"tid":0,"ts":3,"name":"x"}]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"e","cat":"q","id":1,"pid":1,"tid":0,"ts":3,"name":"j"}]})"));
}

TEST(TraceCheckTest, RejectsTimeGoingBackwardsOnOneTrack) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"i","pid":1,"tid":0,"ts":10,"name":"a"},
        {"ph":"i","pid":1,"tid":0,"ts":4,"name":"b"}]})"));
  // ...but distinct tracks are independent clocks.
  EXPECT_TRUE(accepts(R"({"traceEvents":[
        {"ph":"i","pid":1,"tid":0,"ts":10,"name":"a"},
        {"ph":"i","pid":1,"tid":1,"ts":4,"name":"b"}]})"));
}

TEST(TraceCheckTest, RejectsNegativeDuration) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"X","pid":1,"tid":0,"ts":0,"dur":-5,"name":"x"}]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"X","pid":1,"tid":0,"ts":0,"name":"x"}]})"));
}

TEST(TraceCheckTest, RejectsCounterWithoutNumericSeries) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"C","pid":1,"tid":0,"ts":0,"name":"c","args":{"v":"hi"}}]})"));
}

TEST(TraceCheckTest, RejectsMalformedJson) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[)"));
  EXPECT_TRUE(rejects(""));
  EXPECT_TRUE(rejects(R"([1,2,3])"));
}

TEST(TraceCheckTest, RejectsTrailingBytesAfterRoot) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[]} extra)"));
}

TEST(TraceCheckTest, RejectsRootWithoutTraceEventsArray) {
  EXPECT_TRUE(rejects(R"({"events":[]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":{}})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[1]})"));
}

TEST(TraceCheckTest, RejectsDuplicateKeysAndNonJsonLiterals) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[],"traceEvents":[]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"i","pid":1,"tid":0,"ts":NaN}]})"));
}

TEST(TraceCheckTest, RejectsMissingOrMalformedPhase) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[{"pid":1,"tid":0,"ts":0}]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"BE","pid":1,"tid":0,"ts":0}]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[{"ph":7,"pid":1,"tid":0,"ts":0}]})"));
}

TEST(TraceCheckTest, RejectsMissingOrBadTrackFields) {
  for (const char* doc : {
           R"({"traceEvents":[{"ph":"i","tid":0,"ts":0}]})",
           R"({"traceEvents":[{"ph":"i","pid":1,"ts":0}]})",
           R"({"traceEvents":[{"ph":"i","pid":1,"tid":0}]})",
           R"({"traceEvents":[{"ph":"i","pid":"1","tid":0,"ts":0}]})",
           R"({"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":-1}]})",
           R"({"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":1e999}]})",
           R"({"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":true}]})",
           R"({"traceEvents":[{"ph":"M","tid":0,"name":"process_name"}]})"}) {
    EXPECT_TRUE(rejects(doc)) << doc;
  }
  // Metadata events carry no timestamp.
  EXPECT_TRUE(accepts(R"({"traceEvents":[
        {"ph":"M","pid":1,"tid":0,"name":"n"}]})"));
}

TEST(TraceCheckTest, RejectsUnmatchedDurationSpans) {
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"B","pid":1,"tid":0,"ts":0,"name":"x"}]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"B","pid":1,"tid":0,"ts":0}]})"));
  // An "E" closes only the "B" on its own (pid, tid) track.
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"B","pid":1,"tid":0,"ts":0,"name":"x"},
        {"ph":"E","pid":1,"tid":1,"ts":1}]})"));
  EXPECT_TRUE(accepts(R"({"traceEvents":[
        {"ph":"B","pid":1,"tid":0,"ts":0,"name":"x"},
        {"ph":"B","pid":1,"tid":0,"ts":1,"name":"y"},
        {"ph":"E","pid":1,"tid":0,"ts":2},
        {"ph":"E","pid":1,"tid":0,"ts":3}]})"));
}

TEST(TraceCheckTest, PairsAsyncSpansPerPidCategoryAndId) {
  // A span ended under another category or id is still open.
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"b","cat":"q","id":1,"pid":1,"tid":0,"ts":0},
        {"ph":"e","cat":"job","id":1,"pid":1,"tid":0,"ts":1}]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"b","cat":"q","id":1,"pid":1,"tid":0,"ts":0},
        {"ph":"e","cat":"q","id":2,"pid":1,"tid":0,"ts":1}]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"b","id":1,"pid":1,"tid":0,"ts":0}]})"));
  EXPECT_TRUE(rejects(R"({"traceEvents":[
        {"ph":"b","cat":"q","pid":1,"tid":0,"ts":0}]})"));
  // Overlapping spans on one track are fine; each closes on its own track
  // key, on any tid.
  EXPECT_TRUE(accepts(R"({"traceEvents":[
        {"ph":"b","cat":"q","id":1,"pid":1,"tid":0,"ts":0},
        {"ph":"b","cat":"q","id":2,"pid":1,"tid":0,"ts":1},
        {"ph":"e","cat":"q","id":1,"pid":1,"tid":3,"ts":2},
        {"ph":"e","cat":"q","id":2,"pid":1,"tid":0,"ts":3}]})"));
}

TEST(TraceCheckTest, ReportsMissingFileAsInvalid) {
  const CheckRun run = check_trace_file("/nonexistent-dir/zzz/trace.json");
  EXPECT_EQ(run.status, 1);
  EXPECT_NE(run.report.find("INVALID"), std::string::npos) << run.report;
}

}  // namespace
}  // namespace dmsched::obs
