// Regenerates the artifacts of the crowdsourced Cell vs WiFi study
// (Section 2) from one simulated campaign:
//   Table 1   geographical coverage, grouped with the radius-constrained
//             k-means of Section 2.2, with the per-cluster fraction of runs
//             where LTE throughput beat WiFi;
//   Figure 3  CDF of Tput(WiFi) - Tput(LTE) on the uplink and downlink, with
//             the shaded LTE-wins fractions the paper headlines (42% uplink,
//             35% downlink, 40% overall);
//   Figure 4  CDF of the difference between average ping RTT on WiFi and
//             LTE; the paper's surprise is that LTE has LOWER RTT in 20% of
//             runs despite cellular's higher-latency reputation;
//   Figure 6  the throughput-difference CDF measured with regular TCP at the
//             20 MPTCP locations, overlaid on the crowdsourced ("App Data")
//             CDF: the evidence that the 20 locations are representative.
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "common.hpp"
#include "measure/campaign.hpp"
#include "measure/clustering.hpp"
#include "measure/world.hpp"

namespace {

using namespace mn;

void table1(const std::vector<RunRecord>& all, const std::vector<RunRecord>& runs,
            double scale) {
  bench::print_header("Table 1", "Geographical coverage and LTE-win percentage");
  bench::print_paper(
      "22 location clusters from 16 countries; 884 runs in Boston at 10% "
      "LTE-win up to small clusters at 0-80%; clusters within r=100 km.");
  std::cout << "campaign: " << all.size() << " runs collected, " << runs.size()
            << " complete (scale " << scale << ")\n\n";

  const auto clustering = cluster_runs(runs, /*radius_km=*/100.0);

  // Ground-truth targets for the label column.
  std::map<std::string, double> targets;
  for (const auto& c : table1_world()) targets[c.name] = c.lte_win_target;

  Table t{{"Location Name", "(Lat, Long)", "# of Runs", "LTE % (measured)",
           "LTE % (paper)"}};
  for (const auto& c : clustering.clusters) {
    std::ostringstream pos;
    pos << std::fixed << std::setprecision(1) << "(" << c.centre.lat_deg << ", "
        << c.centre.lon_deg << ")";
    t.add_row({c.label, pos.str(), std::to_string(c.runs),
               Table::pct(c.lte_win_fraction), Table::pct(targets[c.label])});
  }
  t.print(std::cout);

  bench::print_measured("clusters found: " + std::to_string(clustering.clusters.size()) +
                        " (paper groups into 22)");
}

PlotOptions tput_diff_plot() {
  PlotOptions plot;
  plot.x_label = "Tput(WiFi) - Tput(LTE) (mbps)";
  plot.y_label = "CDF";
  plot.fix_x = true;
  plot.x_min = -15;
  plot.x_max = 25;
  return plot;
}

void figure3(const CampaignAnalysis& a) {
  bench::print_header("Figure 3", "CDF of WiFi - LTE throughput difference");
  bench::print_paper(
      "LTE outperforms WiFi in 42% of uplink and 35% of downlink samples "
      "(40% combined); differences exceed 10 Mbit/s in both directions.");
  const PlotOptions plot = tput_diff_plot();
  std::cout << "\n(a) Uplink\n"
            << render_plot({bench::cdf_series(a.up_diff, "uplink")}, plot);
  std::cout << "\n(b) Downlink\n"
            << render_plot({bench::cdf_series(a.down_diff, "downlink")}, plot);

  Table t{{"Metric", "Paper", "Measured"}};
  t.add_row({"LTE wins, uplink", "42%", Table::pct(a.lte_win_uplink())});
  t.add_row({"LTE wins, downlink", "35%", Table::pct(a.lte_win_downlink())});
  t.add_row({"LTE wins, combined", "40%", Table::pct(a.lte_win_combined())});
  t.add_row({"max |diff| > 10 mbps", "yes",
             (a.down_diff.max() > 10.0 || -a.down_diff.min() > 10.0) ? "yes" : "no"});
  t.print(std::cout);
}

void figure4(const CampaignAnalysis& a) {
  bench::print_header("Figure 4", "CDF of WiFi - LTE ping-RTT difference");
  bench::print_paper(
      "10-ping averages; in 20% of measurement runs LTE has a lower RTT "
      "than WiFi.");
  PlotOptions plot;
  plot.x_label = "RTT(WiFi) - RTT(LTE) (ms)";
  plot.y_label = "CDF";
  plot.fix_x = true;
  plot.x_min = -400;
  plot.x_max = 400;
  std::cout << "\n" << render_plot({bench::cdf_series(a.rtt_diff, "rtt diff")}, plot);

  Table t{{"Metric", "Paper", "Measured"}};
  t.add_row({"LTE RTT lower than WiFi", "20%", Table::pct(a.lte_rtt_win())});
  t.add_row({"median RTT diff (ms)", "< 0 (WiFi faster)",
             Table::num(a.rtt_diff.median(), 1)});
  t.print(std::cout);
}

void figure6(const CampaignAnalysis& app) {
  bench::print_header("Figure 6",
                      "20-location TCP CDF vs crowdsourced App-Data CDF");
  bench::print_paper(
      "For both upload and download the 20-Location curves are close to "
      "the App Data curves: similar variability of network conditions.");

  // 20-location curves: several seeded runs per location, both directions,
  // 1 MB per flow.  One pool index per (location, run).
  const std::size_t runs_per_location = 5;
  const auto& locations = table2_locations();
  const auto diffs = parallel_map(
      locations.size() * runs_per_location, bench::env_threads(), [&](std::size_t i) {
        const auto setup =
            location_setup(locations[i / runs_per_location], i % runs_per_location + 1);
        auto wifi_minus_lte = [&](Direction dir) {
          const auto tput = [&](PathId path) {
            return bench::flow_mbps(setup, TransportConfig::single_path(path), 1'000'000, dir);
          };
          return tput(PathId::kWifi) - tput(PathId::kLte);
        };
        return std::pair{wifi_minus_lte(Direction::kUpload),
                         wifi_minus_lte(Direction::kDownload)};
      });
  EmpiricalDistribution loc_up;
  EmpiricalDistribution loc_down;
  for (const auto& [up, down] : diffs) {
    loc_up.add(up);
    loc_down.add(down);
  }

  const PlotOptions plot = tput_diff_plot();
  std::cout << "\n(a) Uplink\n"
            << render_plot({bench::cdf_series(app.up_diff, "App Data"),
                            bench::cdf_series(loc_up, "20-Location")},
                           plot);
  std::cout << "\n(b) Downlink\n"
            << render_plot({bench::cdf_series(app.down_diff, "App Data"),
                            bench::cdf_series(loc_down, "20-Location")},
                           plot);

  Table t{{"Quantile", "AppData up", "20-Loc up", "AppData down", "20-Loc down"}};
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    t.add_row({Table::num(q, 2), Table::num(app.up_diff.quantile(q), 1),
               Table::num(loc_up.quantile(q), 1),
               Table::num(app.down_diff.quantile(q), 1),
               Table::num(loc_down.quantile(q), 1)});
  }
  t.print(std::cout);
  bench::print_measured("20-location quantiles track the crowdsourced quantiles");
}

}  // namespace

int main() {
  using namespace mn;
  const double scale = bench::env_scale();
  CampaignOptions opt;
  opt.run_scale = scale;
  const auto all = run_campaign(table1_world(), opt);
  const auto runs = complete_runs(all);
  const auto analysis = analyze_campaign(runs);
  table1(all, runs, scale);
  figure3(analysis);
  figure4(analysis);
  figure6(analysis);
  return 0;
}
