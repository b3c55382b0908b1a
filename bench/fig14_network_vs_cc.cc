// Regenerates Figure 14: per flow size, the paired CDFs of
//   r_network — relative diff when changing the primary network (same CC)
//   r_cwnd    — relative diff when changing the CC (same primary)
// Paper medians: Network 60/43/25 %, CC 16/16/34 % for 10 KB/100 KB/1 MB:
// network choice dominates short flows, CC choice dominates long ones.
#include <array>
#include <iostream>

#include "common.hpp"
#include "util/units.hpp"

int main() {
  using namespace mn;
  bench::print_header("Figure 14", "Primary-network choice vs CC choice, by flow size");
  bench::print_paper(
      "medians — Network: 60% (10 KB), 43% (100 KB), 25% (1 MB); "
      "CC: 16%, 16%, 34%.  'Network' right of 'CC' for small flows, "
      "'CC' right of 'Network' at 1 MB.");

  const auto runs = std::max<std::size_t>(1, static_cast<std::size_t>(5 * bench::env_scale()));
  const std::vector<std::pair<std::string, std::int64_t>> sizes{
      {"10 KB", 10 * kKB}, {"100 KB", 100 * kKB}, {"1 MB", 1000 * kKB}};
  const char* paper_network[] = {"60%", "43%", "25%"};
  const char* paper_cc[] = {"16%", "16%", "34%"};
  // The four measured configurations, in measurement order: {LTE, WiFi}
  // primary x {coupled, decoupled}.
  const TransportConfig configs[] = {
      TransportConfig::mptcp(PathId::kLte, CcAlgo::kCoupled),
      TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled),
      TransportConfig::mptcp(PathId::kLte, CcAlgo::kDecoupled),
      TransportConfig::mptcp(PathId::kWifi, CcAlgo::kDecoupled)};

  // One *measurement run* per configuration: each is measured on its own
  // network sample (the paper's runs were minutes apart), shared by the
  // flow sizes.  One pool index per (location, run).
  std::vector<const Location20*> locations;
  for (const auto& loc : table2_locations()) {
    if (loc.cc_study_member) locations.push_back(&loc);
  }
  using Tputs = std::array<double, 4>;  // lw_c, wf_c, lw_d, wf_d
  const auto tputs =
      parallel_map(locations.size() * runs, bench::env_threads(), [&](std::size_t i) {
        std::vector<Tputs> out(sizes.size());
        for (std::size_t k = 0; k < 4; ++k) {
          const auto setup = location_setup(*locations[i / runs], (i % runs) * 13 + 1000 * (k + 1));
          for (std::size_t si = 0; si < sizes.size(); ++si) {
            out[si][k] = bench::flow_mbps(setup, configs[k], sizes[si].second);
          }
        }
        return out;
      });

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    EmpiricalDistribution r_network;
    EmpiricalDistribution r_cwnd;
    for (const auto& tput : tputs) {
      const auto [lw_c, wf_c, lw_d, wf_d] = tput[si];
      if (wf_c > 0) r_network.add(bench::relative_diff_pct(lw_c, wf_c));
      if (wf_d > 0) r_network.add(bench::relative_diff_pct(lw_d, wf_d));
      if (lw_c > 0) r_cwnd.add(bench::relative_diff_pct(lw_d, lw_c));
      if (wf_c > 0) r_cwnd.add(bench::relative_diff_pct(wf_d, wf_c));
    }
    PlotOptions plot;
    plot.x_label = "Relative Difference (%)";
    plot.y_label = "CDF";
    plot.fix_x = true;
    plot.x_min = 0;
    plot.x_max = 200;
    std::cout << "\n(" << static_cast<char>('a' + si) << ") " << sizes[si].first << "\n"
              << render_plot({bench::cdf_series(r_cwnd, "CC"),
                              bench::cdf_series(r_network, "Network")},
                             plot);
    Table t{{"Knob", "Median (paper)", "Median (measured)"}};
    t.add_row({"Network", paper_network[si], Table::pct(r_network.median() / 100.0)});
    t.add_row({"CC", paper_cc[si], Table::pct(r_cwnd.median() / 100.0)});
    t.print(std::cout);
    std::cout << "  dominant knob at " << sizes[si].first << ": "
              << (r_network.median() > r_cwnd.median() ? "Network" : "CC") << "\n";
  }
  return 0;
}
