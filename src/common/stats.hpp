// Streaming and sample-based statistics used by the metrics pipeline.
#pragma once

#include <cstddef>
#include <vector>

namespace dmsched {

/// Welford online mean in O(1) memory. Used for per-metric aggregation
/// where percentiles are not needed.
class StreamingStats {
 public:
  /// Incorporate one observation.
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
};

/// Stores every observation; provides exact percentiles.
///
/// Job-level metric distributions (wait, slowdown) are small enough —
/// O(#jobs) — that exact percentiles beat sketch approximations.
class SampleStats {
 public:
  void reserve(std::size_t n) { samples_.reserve(n); }
  void add(double x);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;
  /// Exact percentile by linear interpolation, p in [0,100]. 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// All samples, unsorted, in insertion order.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;  // lazily maintained cache
  mutable bool sorted_valid_ = false;
  void ensure_sorted() const;
};

/// Time-weighted average of a piecewise-constant signal, e.g. "busy nodes".
///
/// Feed `(time, value)` change-points in nondecreasing time order; the value
/// holds until the next change-point. `finish(end)` closes the last segment.
class TimeWeightedMean {
 public:
  void record(double time, double value);
  /// Close the signal at `end_time` and return the weighted mean.
  [[nodiscard]] double finish(double end_time) const;
  /// Peak value observed.
  [[nodiscard]] double peak() const { return peak_; }

 private:
  double last_time_ = 0.0;
  double last_value_ = 0.0;
  double weighted_sum_ = 0.0;
  double peak_ = 0.0;
  bool started_ = false;
};

}  // namespace dmsched
