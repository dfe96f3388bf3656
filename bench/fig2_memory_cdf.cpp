// Figure 2 — CDF of per-node memory footprint, one series per workload.
//
// The figure that motivates the whole design: how much of each workload
// exceeds half / all of a node's local memory. Printed as (GiB, F(x))
// series; the CSV regenerates the plot.
#include "bench_util.hpp"

int main() {
  using namespace dmsched;
  using namespace dmsched::bench;
  constexpr std::size_t kPoints = 17;

  ConsoleTable table("Figure 2 — per-node memory footprint CDF");
  std::vector<std::string> headers{"quantile"};
  for (const WorkloadModel model : all_workload_models()) {
    headers.push_back(std::string(to_string(model)) + " (GiB)");
  }
  table.columns(headers);
  auto csv = csv_for("fig2_memory_cdf");
  csv.header({"workload", "mem_gib", "cumulative_fraction"});

  std::vector<std::vector<CdfPoint>> series;
  for (const WorkloadModel model : all_workload_models()) {
    auto cdf = empirical_cdf(memory_footprints_gib(eval_trace(model)),
                             kPoints);
    for (const auto& p : cdf) {
      csv.add(to_string(model)).add(p.x).add(p.cumulative_fraction);
      csv.end_row();
    }
    series.push_back(std::move(cdf));
  }

  for (std::size_t i = 0; i < kPoints; ++i) {
    std::vector<std::string> row{pct(series[0][i].cumulative_fraction)};
    for (const auto& s : series) row.push_back(f1(s[i].x));
    table.row(std::move(row));
  }
  table.print();
  std::puts("(vertical reference lines for the paper figure: 128 GiB = half "
            "local, 256 GiB = full local memory)");
  return 0;
}
