// Regenerates Figure 19: CNN-launch app response times under the five
// oracle selection schemes, averaged across the 20 network conditions
// and normalized by the WiFi-TCP (Android default) baseline.
// Paper: Single-Path-TCP Oracle ~0.50; MPTCP oracles 0.65-0.85.
#include <iostream>
#include <numeric>

#include "common.hpp"

int main() {
  using namespace mn;
  bench::print_header("Figure 19", "CNN normalized app-response time, oracle schemes");
  bench::print_paper(
      "Single-Path-TCP Oracle reduces response time ~50%; MPTCP oracles "
      "only 15-35%: picking the right network beats using both for "
      "short-flow apps.");

  Rng rng{20140814};
  const AppPattern pattern = cnn_launch(rng);
  const double scale = bench::env_scale();
  const auto n_conditions =
      std::max<std::size_t>(4, static_cast<std::size_t>(20 * scale));

  std::vector<int> ids(std::min<std::size_t>(n_conditions, 20));
  std::iota(ids.begin(), ids.end(), 1);
  std::vector<OracleReport> reports;
  for (const auto& times : bench::replay_at_locations(pattern, ids)) {
    reports.push_back(make_oracle_report(times));
  }
  const auto n = normalize_oracles(reports);

  Table t{{"Scheme", "Normalized (paper)", "Normalized (measured)"}};
  t.add_row({"WiFi-TCP (baseline)", "1.00", Table::num(n.wifi_tcp, 2)});
  t.add_row({"Single-Path-TCP Oracle", "~0.50", Table::num(n.single_path_oracle, 2)});
  t.add_row({"Decoupled-MPTCP Oracle", "0.65-0.85", Table::num(n.decoupled_mptcp_oracle, 2)});
  t.add_row({"Coupled-MPTCP Oracle", "0.65-0.85", Table::num(n.coupled_mptcp_oracle, 2)});
  t.add_row({"MPTCP-WiFi-Primary Oracle", "0.65-0.85", Table::num(n.wifi_primary_oracle, 2)});
  t.add_row({"MPTCP-LTE-Primary Oracle", "0.65-0.85", Table::num(n.lte_primary_oracle, 2)});
  t.print(std::cout);

  const double best_mptcp_oracle =
      std::min({n.decoupled_mptcp_oracle, n.coupled_mptcp_oracle, n.wifi_primary_oracle,
                n.lte_primary_oracle});
  bench::print_measured(
      "single-path oracle " + Table::num((1 - n.single_path_oracle) * 100, 0) +
      "% reduction vs best MPTCP oracle " +
      Table::num((1 - best_mptcp_oracle) * 100, 0) + "% -> " +
      (n.single_path_oracle <= best_mptcp_oracle
           ? "network selection beats MPTCP for short flows (as in paper)"
           : "MPTCP unexpectedly wins"));
  return 0;
}
