// Regenerates the Section-3.6.2 energy analysis: LTE radio energy as a
// function of flow duration, with LTE active (Full-MPTCP) versus LTE as
// the backup interface.  The paper's claim: for flows shorter than ~15 s
// the backup configuration saves almost nothing, because the SYN and FIN
// each trigger the full 15-second tail.
#include <iostream>

#include "common.hpp"
#include "energy/power_model.hpp"
#include "mptcp/testbed.hpp"

namespace {

using namespace mn;

double lte_radio_energy(MpMode mode, std::int64_t bytes, double horizon_s) {
  Simulator sim;
  LinkSpec wifi;
  wifi.rate_mbps = 5.0;
  wifi.one_way_delay = msec(12);
  LinkSpec lte = wifi;
  lte.one_way_delay = msec(30);
  // WiFi primary, so in Backup mode LTE is the backup interface.
  MptcpSpec spec{PathId::kWifi, CcAlgo::kDecoupled, mode};
  MptcpTestbed bed{sim, symmetric_setup(wifi, lte), spec};
  bed.start_transfer(bytes, Direction::kDownload);
  if (!bed.run_until_finished(sec(120))) {
    std::cerr << "WARNING: " << to_string(mode) << " flow of " << bytes
              << " bytes timed out; energy below covers a truncated flow\n";
  }
  return bed.meter(PathId::kLte).radio_energy_joules(TimePoint{secs_f(horizon_s).usec()});
}

}  // namespace

int main() {
  using namespace mn;
  bench::print_header("Section 3.6.2", "LTE energy: Full-MPTCP vs Backup mode");
  bench::print_paper(
      "if LTE is the backup interface, very little energy is saved for "
      "flows shorter than 15 seconds (the SYN and FIN tails dominate).");

  // Flow sizes chosen to span ~1.5 s to ~45 s at the 10 Mbit/s aggregate
  // (5 + 5); energy is integrated to flow end + tail.
  Table t{{"Flow bytes", "~Duration (s)", "LTE radio J (Full)", "LTE radio J (Backup)",
           "Savings"}};
  std::vector<std::pair<std::int64_t, double>> cases{
      {1'000'000, 60.0}, {2'500'000, 60.0}, {5'000'000, 60.0},
      {10'000'000, 80.0}, {25'000'000, 120.0}};
  for (const auto& [bytes, horizon] : cases) {
    const double full = lte_radio_energy(MpMode::kFull, bytes, horizon);
    const double backup = lte_radio_energy(MpMode::kBackup, bytes, horizon);
    const double duration = static_cast<double>(bytes) * 8.0 / 10.0 / 1e6;
    const double savings = full > 0 ? 1.0 - backup / full : 0.0;
    t.add_row({std::to_string(bytes), Table::num(duration, 1), Table::num(full, 1),
               Table::num(backup, 1), Table::pct(savings)});
  }
  t.print(std::cout);
  bench::print_measured(
      "short flows: backup saves little (both pay the 15 s tails); long "
      "flows: backup savings grow with duration.");
  return 0;
}
