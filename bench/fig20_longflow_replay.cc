// Regenerates Figure 20: Dropbox-click (long-flow dominated) app
// response time under the six transport configurations at four
// representative conditions.  MPTCP genuinely helps here.
#include <iostream>

#include "common.hpp"

int main() {
  using namespace mn;
  bench::print_header("Figure 20", "Dropbox (long-flow) app response time by config");
  bench::print_paper(
      "MPTCP cuts response time (e.g. 10-15 s single path -> ~5 s MPTCP "
      "at cond 1); the primary network and CC choices both matter "
      "(8 s vs 14 s; 4 s vs 13 s in the paper's examples).");

  Rng rng{20140814};
  const AppPattern pattern = dropbox_click(rng);

  // Conditions 1-2: WiFi-dominant; 3-4: LTE-dominant (all moderate rates).
  const std::vector<int> condition_ids{2, 5, 4, 6};
  Table t{{"Config", "Cond 1", "Cond 2", "Cond 3", "Cond 4"}};
  std::map<std::string, std::vector<double>> rows;
  for (const auto& cfg : replay_configs()) rows[cfg.name()] = {};

  for (const auto& times : bench::replay_at_locations(pattern, condition_ids)) {
    for (const auto& [name, secs] : times) rows[name].push_back(secs);
  }
  for (const auto& cfg : replay_configs()) {
    std::vector<std::string> cells{cfg.name()};
    for (double v : rows[cfg.name()]) cells.push_back(Table::num(v, 2));
    t.add_row(std::move(cells));
  }
  t.print(std::cout);

  double best_tcp = 1e9;
  double best_mptcp = 1e9;
  for (const auto& cfg : replay_configs()) {
    const double v = rows[cfg.name()][0];  // condition 1
    (cfg.kind == TransportKind::kSinglePath ? best_tcp : best_mptcp) =
        std::min(cfg.kind == TransportKind::kSinglePath ? best_tcp : best_mptcp, v);
  }
  bench::print_measured("cond 1: best MPTCP " + Table::num(best_mptcp, 2) +
                        " s vs best single-path " + Table::num(best_tcp, 2) + " s -> " +
                        (best_mptcp < best_tcp ? "MPTCP helps long-flow apps (as in paper)"
                                               : "MPTCP did not help here"));
  return 0;
}
