#include "workload/swf.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <string_view>

#include "common/input_error.hpp"
#include "common/str.hpp"

namespace dmsched {
namespace {

// SWF field indices (0-based) per the PWA v2.2 definition.
constexpr std::size_t kFieldSubmit = 1;
constexpr std::size_t kFieldRuntime = 3;
constexpr std::size_t kFieldAllocProcs = 4;
constexpr std::size_t kFieldUsedMemKb = 6;
constexpr std::size_t kFieldReqProcs = 7;
constexpr std::size_t kFieldReqTime = 8;
constexpr std::size_t kFieldReqMemKb = 9;
constexpr std::size_t kFieldStatus = 10;
constexpr std::size_t kFieldUser = 11;
constexpr std::size_t kFieldCount = 18;

/// The longest time a line may carry, in seconds: half of kTimeInfinity, as
/// in OfferedLoad::scale_to, so a submit plus a walltime stays on the clock.
constexpr std::int64_t kMaxSec = kTimeInfinity.usec() / 2 / 1'000'000;

/// Classification of one SWF line.
enum class LineKind : std::uint8_t {
  kJob,        ///< parsed into the caller's Job
  kBlank,      ///< empty line or ';' comment (not an error)
  kMalformed,  ///< unparseable, or a value the simulator cannot hold
  kFiltered,   ///< parseable but filtered (status, zero runtime/procs, ...)
};

/// Parse one SWF line; on kJob, `j` holds the job with its archive
/// (absolute) submit time and no id.
LineKind parse_line(std::string_view line, const SwfOptions& options,
                    Job& j) {
  const std::string_view stripped = trim(line);
  if (stripped.empty() || stripped.front() == ';') return LineKind::kBlank;

  const auto fields = split_ws(stripped);
  if (fields.size() < kFieldCount) return LineKind::kMalformed;
  std::int64_t raw[kFieldCount];
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    double v{};  // archive traces occasionally use decimals (avg CPU time)
    // Negated so NaN fails too; llround is undefined past int64.
    if (!parse_double(fields[i], v) || !(v >= -0x1p63 && v < 0x1p63)) {
      return LineKind::kMalformed;
    }
    raw[i] = static_cast<std::int64_t>(std::llround(v));
  }

  if (options.completed_only && raw[kFieldStatus] != 1 &&
      raw[kFieldStatus] != -1) {
    return LineKind::kFiltered;
  }
  const std::int64_t runtime_sec = raw[kFieldRuntime];
  std::int64_t procs = raw[kFieldReqProcs] > 0 ? raw[kFieldReqProcs]
                                               : raw[kFieldAllocProcs];
  if (runtime_sec <= 0 || procs <= 0 || raw[kFieldSubmit] < 0) {
    return LineKind::kFiltered;
  }
  const std::int64_t nodes = procs / options.procs_per_node +
                             (procs % options.procs_per_node != 0 ? 1 : 0);
  const double fallback_sec = static_cast<double>(runtime_sec) *
                              options.walltime_fallback_factor;
  if (nodes > INT32_MAX || raw[kFieldSubmit] > kMaxSec ||
      runtime_sec > kMaxSec || raw[kFieldReqTime] > kMaxSec ||
      (raw[kFieldReqTime] <= 0 && !(fallback_sec <= kMaxSec))) {
    return LineKind::kMalformed;
  }

  j = Job{};
  j.submit = seconds(raw[kFieldSubmit]);
  j.nodes = static_cast<std::int32_t>(nodes);
  j.runtime = seconds(runtime_sec);
  j.walltime = raw[kFieldReqTime] > 0 ? seconds(raw[kFieldReqTime])
                                      : seconds(fallback_sec);
  // Archive traces contain overruns (runtime > request) when sites had lax
  // enforcement; DMSched requires runtime <= walltime, so clamp upward.
  j.walltime = max(j.walltime, j.runtime);

  const std::int64_t mem_kb = raw[kFieldReqMemKb] > 0 ? raw[kFieldReqMemKb]
                                                      : raw[kFieldUsedMemKb];
  if (mem_kb > 0) {
    std::int64_t bytes = 0;
    if (__builtin_mul_overflow(mem_kb, std::int64_t{1024}, &bytes) ||
        __builtin_mul_overflow(bytes, options.procs_per_node, &bytes)) {
      return LineKind::kMalformed;
    }
    j.mem_per_node = Bytes{bytes};
  } else {
    j.mem_per_node = options.default_mem_per_node;
  }
  j.user = raw[kFieldUser] > 0 ? static_cast<std::int32_t>(raw[kFieldUser])
                               : 0;
  j.sensitivity = MemSensitivity::kBalanced;
  return LineKind::kJob;
}

}  // namespace

SwfResult read_swf(std::istream& in, const SwfOptions& options,
                   std::string trace_name) {
  if (options.procs_per_node <= 0) {
    throw InputError("procs_per_node",
                     strformat("procs_per_node = %d, must be > 0",
                               options.procs_per_node));
  }
  SwfResult result;
  std::vector<Job> jobs;
  std::string line;
  Job job;
  while (std::getline(in, line)) {
    ++result.lines_total;
    switch (parse_line(line, options, job)) {
      case LineKind::kBlank:
        break;
      case LineKind::kMalformed:
        ++result.lines_malformed;
        break;
      case LineKind::kFiltered:
        ++result.jobs_skipped;
        break;
      case LineKind::kJob:
        jobs.push_back(job);
        ++result.jobs_accepted;
        break;
    }
  }
  if (in.bad()) {
    result.error = "I/O error while reading SWF stream";
    return result;
  }
  result.trace = Trace::make(std::move(jobs), std::move(trace_name)).rebased();
  return result;
}

SwfResult read_swf_file(const std::string& path, const SwfOptions& options) {
  std::ifstream in(path);
  if (!in) {
    SwfResult r;
    r.error = "cannot open SWF file: " + path;
    return r;
  }
  // Trace name = file basename.
  auto slash = path.find_last_of('/');
  std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return read_swf(in, options, std::move(name));
}

}  // namespace dmsched
