// Regenerates Figure 21: Dropbox-click oracle schemes, normalized by the
// WiFi-TCP baseline across the 20 conditions.  Paper: MPTCP oracles
// reach ~0.50 while the Single-Path oracle reaches only ~0.58 — for
// long-flow apps MPTCP (with the right primary/CC) wins.
#include <iostream>
#include <numeric>

#include "common.hpp"

int main() {
  using namespace mn;
  bench::print_header("Figure 21",
                      "Dropbox normalized app-response time, oracle schemes");
  bench::print_paper(
      "MPTCP oracles reduce response time by up to ~50%, the single-path "
      "oracle by ~42%; primary choice and CC choice are about equally "
      "beneficial for long-flow apps.");

  Rng rng{20140814};
  const AppPattern pattern = dropbox_click(rng);
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
  t.add_row({"Single-Path-TCP Oracle", "~0.58", Table::num(n.single_path_oracle, 2)});
  t.add_row({"Decoupled-MPTCP Oracle", "~0.50-0.55", Table::num(n.decoupled_mptcp_oracle, 2)});
  t.add_row({"Coupled-MPTCP Oracle", "~0.50", Table::num(n.coupled_mptcp_oracle, 2)});
  t.add_row({"MPTCP-WiFi-Primary Oracle", "~0.50-0.55", Table::num(n.wifi_primary_oracle, 2)});
  t.add_row({"MPTCP-LTE-Primary Oracle", "~0.50-0.55", Table::num(n.lte_primary_oracle, 2)});
  t.print(std::cout);

  const double best_mptcp_oracle =
      std::min({n.decoupled_mptcp_oracle, n.coupled_mptcp_oracle, n.wifi_primary_oracle,
                n.lte_primary_oracle});
  bench::print_measured(
      "best MPTCP oracle " + Table::num((1 - best_mptcp_oracle) * 100, 0) +
      "% reduction vs single-path oracle " +
      Table::num((1 - n.single_path_oracle) * 100, 0) + "% -> " +
      (best_mptcp_oracle <= n.single_path_oracle
           ? "MPTCP wins for long-flow apps (as in paper)"
           : "single path unexpectedly wins"));
  return 0;
}
