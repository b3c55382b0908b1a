// The simulated counterpart of the paper's Figure-5 measurement setup: a
// multi-homed client (WiFi + tethered LTE) talking to a single-homed
// server at MIT, over two emulated duplex paths.
//
// The testbed wires one MptcpAgent on each end, exposes the two
// client-side NetworkInterfaces for failure injection (soft disable /
// unplug / replug), and records per-interface packet events — the raw
// material of the Figure-15 timelines and the energy model.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "energy/power_model.hpp"
#include "mptcp/mptcp_agent.hpp"
#include "net/path.hpp"
#include "tcp/flow.hpp"

namespace mn {

/// Link parameters for both directions of both networks.
struct MpNetworkSetup {
  LinkSpec wifi_up;
  LinkSpec wifi_down;
  LinkSpec lte_up;
  LinkSpec lte_down;
  /// A locally attached WiFi radio sees carrier loss; the paper's
  /// USB-tethered LTE phone does not (the Figure-15g asymmetry).
  bool wifi_reports_carrier_loss = true;
  bool lte_reports_carrier_loss = false;
};

/// Symmetric convenience constructor: same spec both directions per path.
[[nodiscard]] MpNetworkSetup symmetric_setup(const LinkSpec& wifi, const LinkSpec& lte);

/// One packet crossing a client interface.
struct PacketEvent {
  TimePoint t;
  PacketDir dir = PacketDir::kSent;
  TcpFlags flags;
  std::int64_t payload = 0;
};

class MptcpTestbed {
 public:
  MptcpTestbed(Simulator& sim, const MpNetworkSetup& setup, MptcpSpec spec);
  MptcpTestbed(const MptcpTestbed&) = delete;
  MptcpTestbed& operator=(const MptcpTestbed&) = delete;
  ~MptcpTestbed();

  [[nodiscard]] MptcpAgent& client() { return *client_; }
  [[nodiscard]] MptcpAgent& server() { return *server_; }
  [[nodiscard]] NetworkInterface& iface(PathId path) {
    return *ifaces_[static_cast<std::size_t>(path)];
  }
  /// The emulated duplex path behind `path` (fault-injection target).
  [[nodiscard]] DuplexPath& path(PathId path) {
    return path == PathId::kWifi ? *wifi_path_ : *lte_path_;
  }
  [[nodiscard]] const std::vector<PacketEvent>& events(PathId path) const {
    return events_[static_cast<std::size_t>(path)];
  }
  /// First-class radio energy: that radio's EnergyMeter (Figure-16
  /// parameters), built on each call from the packet events recorded at
  /// its client interface.  Build it once and reuse it for several
  /// queries.
  [[nodiscard]] EnergyMeter meter(PathId path) const;

  /// Begin a bulk transfer: server.listen + client.connect + data enqueue.
  void start_transfer(std::int64_t bytes, Direction dir);
  /// Step the simulator until both agents finish or `timeout` elapses.
  /// Returns true when the transfer completed cleanly.  The result must
  /// not be ignored: a timed-out run left the agents mid-flow, and
  /// reading sim.now() as a completion time silently reports the
  /// timeout as the result.  Timeouts count as mptcp.run_timeouts.
  [[nodiscard]] bool run_until_finished(Duration timeout);
  /// Like run_until_finished, but also aborts when no *progress* has been
  /// made for `stall_limit` — wall-clock caps alone let a blackholed flow
  /// burn the whole timeout retransmitting into the void.
  [[nodiscard]] WatchdogResult run_with_watchdog(Duration timeout, Duration stall_limit);
  /// Hash of the monotone transfer counters on both ends.  Changes iff
  /// the flow made real progress; retransmit/RTO counts are deliberately
  /// excluded (endless retransmission into a blackhole is not progress).
  [[nodiscard]] std::uint64_t progress_signature() const;
  /// Freeze both agents (all subflow timers stopped).  After an aborted
  /// run this lets the simulator drain to an empty queue.
  void shutdown();

 private:
  Simulator& sim_;
  std::unique_ptr<DuplexPath> wifi_path_;
  std::unique_ptr<DuplexPath> lte_path_;
  std::array<std::unique_ptr<NetworkInterface>, 2> ifaces_;  // index = PathId
  std::unique_ptr<MptcpAgent> client_;
  std::unique_ptr<MptcpAgent> server_;
  std::array<std::vector<PacketEvent>, 2> events_;  // index = PathId
};

/// Result of one MPTCP bulk flow: the single-path result (syn_rtt is
/// the primary subflow's handshake) plus how multipath fared.
struct MptcpFlowResult : FlowResult {
  /// How multipath negotiation settled (client view; middlebox realism).
  MpNegotiation negotiation = MpNegotiation::kNegotiating;
  /// MP_CAPABLE survived the primary handshake end to end.
  bool negotiated_mp = false;
  /// A second subflow actually joined — multipath was used, not merely
  /// negotiated (the negotiated-vs-achieved distinction).
  bool achieved_mp = false;
  /// Why multipath degraded ("" when it did not): "capable_stripped",
  /// "syn_dropped", "join_rejected" or "mid_flow_dss".
  std::string fallback_reason;
  /// MP_JOIN connection attempts issued by the client's path manager.
  int join_attempts = 0;
  /// Which data-level scheduler policy the flow ran under.
  MpScheduler scheduler = MpScheduler::kLowestRtt;
  /// Per-radio energy above base load (joules), integrated from flow
  /// start to end-of-run + 20 s so the LTE tail is fully charged.
  double energy_wifi_j = 0.0;
  double energy_lte_j = 0.0;
  /// Client-observed per-subflow byte timelines (index = subflow id;
  /// subflow 0 is on the primary network).
  std::array<std::vector<TimelinePoint>, 2> subflow_timelines;
  std::array<PathId, 2> subflow_paths{PathId::kWifi, PathId::kLte};
};

/// Runs one bulk transfer of `bytes` over a fresh testbed.  `on_testbed`
/// is called after the testbed is wired but before the transfer starts;
/// the fault layer uses it to arm a FaultInjector against the bed's
/// paths/interfaces without mptcp depending on the faults library.
[[nodiscard]] MptcpFlowResult run_mptcp_flow(
    Simulator& sim, const MpNetworkSetup& setup, const MptcpSpec& spec, std::int64_t bytes,
    Direction dir, const FlowOptions& options = {},
    const std::function<void(MptcpTestbed&)>& on_testbed = {});

}  // namespace mn
