// Regenerates Figure 8: CDF of the relative throughput difference
// |MPTCP_LTE - MPTCP_WiFi| / MPTCP_WiFi between the two primary-subflow
// choices (decoupled CC), for 10 KB / 100 KB / 1 MB flows across the 20
// locations.  Paper medians: 60% (10 KB), 49% (100 KB), 28% (1 MB).
#include <array>
#include <iostream>

#include "common.hpp"
#include "util/units.hpp"

int main() {
  using namespace mn;
  bench::print_header("Figure 8",
                      "Relative difference between MPTCP_LTE and MPTCP_WiFi");
  bench::print_paper(
      "median relative difference 60% at 10 KB, 49% at 100 KB, 28% at "
      "1 MB: the primary-subflow choice matters most for short flows.");

  const auto runs = std::max<std::size_t>(1, static_cast<std::size_t>(3 * bench::env_scale()));
  const std::vector<std::pair<std::string, std::int64_t>> sizes{
      {"10 KB", 10 * kKB}, {"100 KB", 100 * kKB}, {"1 MB", 1000 * kKB}};
  const std::vector<std::string> paper_medians{"60%", "49%", "28%"};

  // One pool index per (location, run).  Separate measurement runs per
  // configuration, as in the paper: each primary choice gets its own
  // network sample, shared by the flow sizes.
  const auto& locations = table2_locations();
  const auto tputs =
      parallel_map(locations.size() * runs, bench::env_threads(), [&](std::size_t i) {
        std::vector<std::array<double, 2>> tput(sizes.size());  // [size][LTE, WiFi]
        for (std::size_t primary = 0; primary < 2; ++primary) {
          const auto setup = location_setup(locations[i / runs],
                                            (primary + 1) * 1000 + (i % runs) * 7);
          const auto cfg = TransportConfig::mptcp(
              primary == 0 ? PathId::kLte : PathId::kWifi, CcAlgo::kDecoupled);
          for (std::size_t si = 0; si < sizes.size(); ++si) {
            tput[si][primary] = bench::flow_mbps(setup, cfg, sizes[si].second);
          }
        }
        return tput;
      });
  std::vector<EmpiricalDistribution> dists(sizes.size());
  for (const auto& tput : tputs) {
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      if (tput[si][1] > 0.0) dists[si].add(bench::relative_diff_pct(tput[si][0], tput[si][1]));
    }
  }

  PlotOptions plot;
  plot.x_label = "Relative Difference (%)";
  plot.y_label = "CDF";
  plot.fix_x = true;
  plot.x_min = 0;
  plot.x_max = 200;
  std::vector<Series> series;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    series.push_back(bench::cdf_series(dists[si], sizes[si].first));
  }
  std::cout << "\n" << render_plot(series, plot);

  Table t{{"Flow size", "Median rel. diff (paper)", "Median rel. diff (measured)"}};
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    t.add_row({sizes[si].first, paper_medians[si],
               Table::pct(dists[si].median() / 100.0)});
  }
  t.print(std::cout);
  bench::print_measured(
      "smaller flows are more sensitive to the primary-subflow choice: " +
      Table::num(dists[0].median(), 0) + "% > " + Table::num(dists[2].median(), 0) +
      "%");
  return 0;
}
