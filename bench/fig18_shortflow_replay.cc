// Regenerates Figure 18: CNN-launch (short-flow dominated) app response
// time under the six transport configurations, at four representative
// network conditions (1-2: WiFi much faster; 3-4: LTE much faster).
#include <iostream>

#include "common.hpp"

int main() {
  using namespace mn;
  bench::print_header("Figure 18", "CNN (short-flow) app response time by config");
  bench::print_paper(
      "choosing the right network for single-path TCP cuts response time "
      "~2-2.6x; MPTCP gives little further benefit for short-flow apps.");

  Rng rng{20140814};
  const AppPattern pattern = cnn_launch(rng);

  // Conditions 1-2: WiFi >> LTE; conditions 3-4: LTE >> WiFi.
  // Conditions 1-2: WiFi-dominant; 3-4: LTE-dominant (all moderate rates).
  const std::vector<int> condition_ids{2, 5, 4, 6};  // Table-2 locations
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

  // The paper's two observations, checked on conditions 1 and 4.
  const double c1_wifi = rows["WiFi-TCP"][0];
  const double c1_lte = rows["LTE-TCP"][0];
  const double c4_wifi = rows["WiFi-TCP"][3];
  const double c4_lte = rows["LTE-TCP"][3];
  bench::print_measured("cond 1 (WiFi fast): right single path is " +
                        Table::num(c1_lte / c1_wifi, 1) + "x faster than the wrong one");
  bench::print_measured("cond 4 (LTE fast): right single path is " +
                        Table::num(c4_wifi / c4_lte, 1) + "x faster than the wrong one");
  double best_tcp = std::min(c1_wifi, c1_lte);
  double best_mptcp = 1e9;
  for (const auto& cfg : replay_configs()) {
    if (cfg.kind == TransportKind::kMptcp) {
      best_mptcp = std::min(best_mptcp, rows[cfg.name()][0]);
    }
  }
  bench::print_measured("cond 1: best MPTCP " + Table::num(best_mptcp, 2) +
                        " s vs best TCP " + Table::num(best_tcp, 2) +
                        " s -> MPTCP adds " +
                        (best_mptcp >= best_tcp * 0.9 ? "little for short flows"
                                                      : "a surprising amount"));
  return 0;
}
