// Named counters and gauges, dumped to CSV at end of run.
//
// A CounterRegistry is the scalar complement to the TraceSink span stream:
// where the sink sees every event, the registry holds end-of-run totals
// (counters) and min/last/max envelopes (gauges). Like sinks, a registry is
// passive — the engine writes into it but never reads from it, and every
// value it records is deterministic (no wall-clock quantities), so a
// counters CSV is as reproducible as a golden table.
//
// Entries are created on first use and iterate in registration order, so
// dumps are stable across runs. References returned by counter()/gauge()
// stay valid for the registry's lifetime (deque-backed storage).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dmsched::obs {

/// A monotonically growing total.
struct Counter {
  std::uint64_t value = 0;

  void add(std::uint64_t n = 1) { value += n; }
};

/// A sampled quantity with a min/last/max envelope.
struct Gauge {
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t samples = 0;

  void set(double v) {
    last = v;
    if (samples == 0 || v < min) min = v;
    if (samples == 0 || v > max) max = v;
    ++samples;
  }
};

/// Get-or-create registry of named Counters and Gauges.
class CounterRegistry {
 public:
  /// The counter named `name`, created at zero on first use.
  Counter& counter(std::string_view name);
  /// The gauge named `name`, created empty on first use.
  Gauge& gauge(std::string_view name);

  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] std::size_t gauge_count() const { return gauges_.size(); }

  /// Dump everything as CSV: kind,name,value,min,max,samples. Counters fill
  /// `value` only; gauges fill value (= last), min, max, and samples.
  /// Returns false if the file could not be written.
  bool write_csv(const std::string& path) const;

 private:
  // deque keeps references stable as entries are added; the maps index into
  // the deques. Iteration is always over the deques (registration order) —
  // never over the unordered maps (determinism contract).
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
};

}  // namespace dmsched::obs
