// Backup-mode failover and its energy cost: run a download with WiFi
// primary and LTE backup, kill WiFi mid-flow, watch MPTCP fail over,
// and account the LTE radio energy with the Figure-16 power model.
#include <iostream>

#include "energy/power_model.hpp"
#include "mptcp/testbed.hpp"

int main() {
  using namespace mn;

  Simulator sim;
  LinkSpec wifi;
  wifi.rate_mbps = 8.0;
  wifi.one_way_delay = msec(10);
  LinkSpec lte;
  lte.rate_mbps = 6.0;
  lte.one_way_delay = msec(30);

  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.mode = MpMode::kBackup;
  spec.cc = CcAlgo::kDecoupled;

  MptcpTestbed bed{sim, symmetric_setup(wifi, lte), spec};
  bed.start_transfer(6'000'000, Direction::kDownload);

  // Kill the WiFi AP four seconds in ("multipath off" via iproute).
  sim.schedule_at(TimePoint{sec(4).usec()}, [&bed] {
    std::cout << "t=4s: disabling WiFi\n";
    bed.iface(PathId::kWifi).disable_soft();
  });

  const bool ok = bed.run_until_finished(sec(120));
  std::cout << "transfer " << (ok ? "completed" : "DID NOT complete") << " at t="
            << sim.now().seconds() << " s; delivered "
            << bed.client().data_delivered_in_order() << " bytes\n";

  std::int64_t wifi_bytes = 0;
  std::int64_t lte_bytes = 0;
  for (const auto& e : bed.events(PathId::kWifi)) wifi_bytes += e.payload;
  for (const auto& e : bed.events(PathId::kLte)) lte_bytes += e.payload;
  std::cout << "data carried: WiFi " << wifi_bytes << " B (before failure), LTE "
            << lte_bytes << " B (after failover)\n";

  // Energy accounting for both radios over the session + tail.
  const TimePoint horizon = sim.now() + sec(20);
  std::cout << "radio energy: LTE " << bed.meter(PathId::kLte).radio_energy_joules(horizon)
            << " J, WiFi " << bed.meter(PathId::kWifi).radio_energy_joules(horizon) << " J\n"
            << "(note the LTE SYN at t=0 already cost a 15 s tail before any data)\n";
  return 0;
}
