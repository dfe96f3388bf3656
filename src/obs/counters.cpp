#include "obs/counters.hpp"

#include "common/csv.hpp"

namespace dmsched::obs {

Counter& CounterRegistry::counter(std::string_view name) {
  auto it = counter_index_.find(std::string(name));
  if (it != counter_index_.end()) return counters_[it->second].second;
  counters_.emplace_back(std::string(name), Counter{});
  counter_index_.emplace(std::string(name), counters_.size() - 1);
  return counters_.back().second;
}

Gauge& CounterRegistry::gauge(std::string_view name) {
  auto it = gauge_index_.find(std::string(name));
  if (it != gauge_index_.end()) return gauges_[it->second].second;
  gauges_.emplace_back(std::string(name), Gauge{});
  gauge_index_.emplace(std::string(name), gauges_.size() - 1);
  return gauges_.back().second;
}

bool CounterRegistry::write_csv(const std::string& path) const {
  CsvWriter csv(path);
  if (!csv.ok()) return false;
  csv.header({"kind", "name", "value", "min", "max", "samples"});
  for (const auto& [name, c] : counters_) {
    csv.add("counter")
        .add(name)
        .add(static_cast<std::int64_t>(c.value))
        .add("")
        .add("")
        .add("");
    csv.end_row();
  }
  for (const auto& [name, g] : gauges_) {
    csv.add("gauge").add(name);
    if (g.samples == 0) {
      csv.add("").add("").add("");
    } else {
      csv.add(g.last).add(g.min).add(g.max);
    }
    csv.add(static_cast<std::int64_t>(g.samples));
    csv.end_row();
  }
  return csv.ok();
}

}  // namespace dmsched::obs
