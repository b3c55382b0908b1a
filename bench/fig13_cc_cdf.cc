// Regenerates Figure 13: CDF of the relative throughput difference
// between coupled and decoupled congestion control at the 7 CC-study
// locations, per flow size.  Paper medians: 16% (10 KB), 16% (100 KB),
// 34% (1 MB) — CC choice matters most for long flows.
#include <array>
#include <iostream>

#include "common.hpp"
#include "util/units.hpp"

int main() {
  using namespace mn;
  bench::print_header("Figure 13", "Coupled vs decoupled congestion control");
  bench::print_paper(
      "median relative difference 16% at 10 KB and 100 KB, 34% at 1 MB: "
      "larger flows are most affected by the CC choice.");

  const auto runs = std::max<std::size_t>(1, static_cast<std::size_t>(5 * bench::env_scale()));
  const std::vector<std::pair<std::string, std::int64_t>> sizes{
      {"10 KB", 10 * kKB}, {"100 KB", 100 * kKB}, {"1 MB", 1000 * kKB}};
  const std::vector<std::string> paper_medians{"16%", "16%", "34%"};
  const PathId primaries[] = {PathId::kWifi, PathId::kLte};

  // r_cwnd per the paper: same primary network, different CC.  The
  // paper's measurements were *separate runs* minutes apart, so each CC
  // sees its own network conditions: a distinct trace seed per CC.  One
  // pool index per (location, run).
  std::vector<const Location20*> locations;
  for (const auto& loc : table2_locations()) {
    if (loc.cc_study_member) locations.push_back(&loc);
  }
  using Pair = std::array<double, 2>;  // {coupled, decoupled}
  const auto tputs =
      parallel_map(locations.size() * runs, bench::env_threads(), [&](std::size_t i) {
        const auto& loc = *locations[i / runs];
        const auto coupled_net = location_setup(loc, 1000 + (i % runs) * 7);
        const auto decoupled_net = location_setup(loc, 2000 + (i % runs) * 7);
        std::vector<std::array<Pair, 2>> out(sizes.size());  // [size][primary]
        for (std::size_t si = 0; si < sizes.size(); ++si) {
          for (std::size_t p = 0; p < 2; ++p) {
            const auto bytes = sizes[si].second;
            out[si][p] = {
                bench::flow_mbps(coupled_net,
                                 TransportConfig::mptcp(primaries[p], CcAlgo::kCoupled), bytes),
                bench::flow_mbps(decoupled_net,
                                 TransportConfig::mptcp(primaries[p], CcAlgo::kDecoupled),
                                 bytes)};
          }
        }
        return out;
      });
  std::vector<EmpiricalDistribution> dists(sizes.size());
  for (const auto& tput : tputs) {
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      for (const auto& [coupled, decoupled] : tput[si]) {
        if (coupled > 0.0) dists[si].add(bench::relative_diff_pct(decoupled, coupled));
      }
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
  bench::print_measured("CC choice matters more at 1 MB than at 10 KB: " +
                        std::string(dists[2].median() > dists[0].median()
                                        ? "yes (as in paper)"
                                        : "no"));
  return 0;
}
