#include "mptcp/testbed.hpp"

#include <utility>

#include "util/units.hpp"

namespace mn {

constexpr std::uint64_t kConnectionId = 1;  // one connection per testbed

MpNetworkSetup symmetric_setup(const LinkSpec& wifi, const LinkSpec& lte) {
  MpNetworkSetup s;
  s.wifi_up = s.wifi_down = wifi;
  s.lte_up = s.lte_down = lte;
  return s;
}

MptcpTestbed::MptcpTestbed(Simulator& sim, const MpNetworkSetup& setup, MptcpSpec spec)
    : sim_(sim) {
  wifi_path_ = std::make_unique<DuplexPath>(sim, setup.wifi_up, setup.wifi_down);
  lte_path_ = std::make_unique<DuplexPath>(sim, setup.lte_up, setup.lte_down);
  ifaces_[0] = std::make_unique<NetworkInterface>("wifi", sim, *wifi_path_,
                                                  setup.wifi_reports_carrier_loss);
  ifaces_[1] = std::make_unique<NetworkInterface>("lte", sim, *lte_path_,
                                                  setup.lte_reports_carrier_loss);

  client_ = std::make_unique<MptcpAgent>(sim, kConnectionId, spec, /*is_client=*/true);
  server_ = std::make_unique<MptcpAgent>(sim, kConnectionId, spec, /*is_client=*/false);

  for (int id = 0; id < 2; ++id) {
    const PathId path = client_->subflow_path(id);
    NetworkInterface* iface = ifaces_[static_cast<std::size_t>(path)].get();
    client_->set_transmit(id, [iface](const Packet& p) { iface->send(p); });
    DuplexPath* dp = (path == PathId::kWifi) ? wifi_path_.get() : lte_path_.get();
    server_->set_transmit(id, [dp](const Packet& p) { dp->send_down(p); });
  }
  // All client-bound traffic funnels into the client agent (subflow_id in
  // the packet selects the endpoint); same on the server.
  for (auto& iface : ifaces_) {
    iface->set_receiver([this](const Packet& p) { client_->handle_packet(p); });
  }
  wifi_path_->set_server_receiver([this](const Packet& p) { server_->handle_packet(p); });
  lte_path_->set_server_receiver([this](const Packet& p) { server_->handle_packet(p); });

  // Interface state changes drive MPTCP path management on the client.
  for (int pi = 0; pi < 2; ++pi) {
    const auto path = static_cast<PathId>(pi);
    ifaces_[static_cast<std::size_t>(pi)]->add_state_listener(
        [this, path](bool up) { client_->notify_path_state(path, up); });
    // Packet-event taps (Figure 15 / energy model: meter() reads the
    // same events).
    ifaces_[static_cast<std::size_t>(pi)]->set_tap(
        [this, pi](TimePoint t, PacketDir dir, const Packet& p) {
          events_[static_cast<std::size_t>(pi)].push_back(
              PacketEvent{t, dir, p.flags, p.payload});
        });
  }
}

MptcpTestbed::~MptcpTestbed() {
  wifi_path_->set_server_receiver({});
  lte_path_->set_server_receiver({});
}

EnergyMeter MptcpTestbed::meter(PathId path) const {
  EnergyMeter m{path == PathId::kWifi ? wifi_power_params() : lte_power_params()};
  for (const PacketEvent& e : events(path)) m.add_activity(e.t);
  return m;
}

void MptcpTestbed::start_transfer(std::int64_t bytes, Direction dir) {
  MptcpAgent& sender = (dir == Direction::kUpload) ? *client_ : *server_;
  sender.send_data(bytes);
  sender.close_when_done();
  server_->listen();
  client_->connect();
}

bool MptcpTestbed::run_until_finished(Duration timeout) {
  const TimePoint deadline = sim_.now() + timeout;
  while (!(client_->finished() && server_->finished()) && sim_.now() < deadline) {
    if (!sim_.step()) break;
  }
  const bool finished = client_->finished() && server_->finished();
  if (!finished && sim_.now() >= deadline) {
    if (auto* o = sim_.obs()) o->count(o->ids().mptcp_run_timeouts);
  }
  return finished;
}

std::uint64_t MptcpTestbed::progress_signature() const {
  // Weighted sum of every monotone transfer counter plus the subflow
  // states (handshake transitions count as progress too).  Because the
  // byte counters only ever increase, a sum changes exactly when any
  // component changes — no hash needed.  States get a 2^40 weight so a
  // state transition can never be cancelled by a byte-counter delta
  // (individual flows move far fewer than a terabyte).  This runs after
  // every simulator step, so it must stay a handful of inline loads.
  std::uint64_t sig = 0;
  for (const MptcpAgent* agent : {client_.get(), server_.get()}) {
    sig += static_cast<std::uint64_t>(agent->data_acked());
    sig += static_cast<std::uint64_t>(agent->data_delivered());
    for (int id = 0; id < 2; ++id) {
      const TcpEndpoint& ep = agent->subflow(id);
      sig += static_cast<std::uint64_t>(ep.bytes_acked());
      sig += static_cast<std::uint64_t>(ep.bytes_delivered());
      sig += static_cast<std::uint64_t>(ep.state()) << 40;
    }
  }
  return sig;
}

WatchdogResult MptcpTestbed::run_with_watchdog(Duration timeout, Duration stall_limit) {
  WatchdogResult result =
      run_watched(sim_, timeout, stall_limit,
                  [this] { return client_->finished() && server_->finished(); },
                  [this] { return progress_signature(); });
  if (result.reason == "timeout") {
    if (auto* o = sim_.obs()) o->count(o->ids().mptcp_run_timeouts);
  }
  return result;
}

void MptcpTestbed::shutdown() {
  client_->shutdown();
  server_->shutdown();
}

MptcpFlowResult run_mptcp_flow(Simulator& sim, const MpNetworkSetup& setup,
                               const MptcpSpec& spec, std::int64_t bytes, Direction dir,
                               const FlowOptions& options,
                               const std::function<void(MptcpTestbed&)>& on_testbed) {
  MptcpTestbed bed{sim, setup, spec};
  const TimePoint start = sim.now();
  MptcpFlowResult result;

  bed.client().on_established = [&] { result.syn_rtt = sim.now() - start; };
  if (on_testbed) on_testbed(bed);
  bed.start_transfer(bytes, dir);
  const WatchdogResult watchdog =
      bed.run_with_watchdog(options.timeout, options.stall_limit.value_or(options.timeout));
  // Quiesce the agents so the caller can drain the simulator without
  // RTO timers rescheduling forever.
  if (!watchdog.completed) bed.shutdown();

  // Client-observed data-level clock: delivered for downloads, acked for
  // uploads (the paper measures at the phone's tcpdump).
  MptcpAgent& client = bed.client();
  const bool down = dir == Direction::kDownload;
  settle_flow(result, down ? client.delivered_timeline() : client.acked_timeline(), start,
              bytes, options.timeout, watchdog);
  for (int id = 0; id < 2; ++id) {
    const TcpEndpoint& sf = client.subflow(id);
    const auto i = static_cast<std::size_t>(id);
    result.subflow_paths[i] = client.subflow_path(id);
    result.subflow_timelines[i] =
        timeline_since(down ? sf.delivered_timeline() : sf.acked_timeline(), start);
    result.retransmits +=
        sf.retransmit_count() + bed.server().subflow(id).retransmit_count();
  }

  // Per-radio energy: integrate to end-of-run + 20 s so the LTE tail
  // (15 s after the FIN) is fully charged to the flow that caused it.
  result.scheduler = spec.scheduler;
  const TimePoint energy_horizon = sim.now() + sec(20);
  const EnergyMeter wifi = bed.meter(PathId::kWifi);
  const EnergyMeter lte = bed.meter(PathId::kLte);
  result.energy_wifi_j = wifi.radio_energy_joules(energy_horizon);
  result.energy_lte_j = lte.radio_energy_joules(energy_horizon);
  if (auto* o = sim.obs()) {
    wifi.publish(*o, energy_horizon, /*radio_id=*/0);
    lte.publish(*o, energy_horizon, /*radio_id=*/1);
  }

  // Negotiation outcome: the client (active opener) is authoritative —
  // it is the side real measurement tools observe — but when a one-way
  // middlebox leaves the views asymmetric, a fallback either side saw is
  // worth reporting.
  result.negotiation = client.negotiation();
  result.negotiated_mp = client.negotiated_mp();
  result.achieved_mp = client.achieved_mp();
  result.join_attempts = client.join_attempts();
  result.fallback_reason = client.fallback_reason();
  if (result.fallback_reason.empty()) {
    result.fallback_reason = bed.server().fallback_reason();
  }
  return result;
}

}  // namespace mn
