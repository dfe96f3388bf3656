#include "common/stats.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dmsched {

void StreamingStats::add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

double StreamingStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

void SampleStats::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

double SampleStats::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleStats::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

void SampleStats::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double SampleStats::percentile(double p) const {
  DMSCHED_ASSERT(p >= 0.0 && p <= 100.0, "percentile(): p outside [0,100]");
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_.front();
  const double rank =
      p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

void TimeWeightedMean::record(double time, double value) {
  if (started_) {
    DMSCHED_ASSERT(time >= last_time_,
                   "TimeWeightedMean: change-points must be time-ordered");
    weighted_sum_ += last_value_ * (time - last_time_);
  } else {
    started_ = true;
  }
  last_time_ = time;
  last_value_ = value;
  peak_ = std::max(peak_, value);
}

double TimeWeightedMean::finish(double end_time) const {
  if (!started_ || end_time <= 0.0) return 0.0;
  DMSCHED_ASSERT(end_time >= last_time_, "TimeWeightedMean: end before last");
  const double total = weighted_sum_ + last_value_ * (end_time - last_time_);
  return total / end_time;
}

}  // namespace dmsched
