#include "tcp/flow.hpp"

#include <tuple>

#include "util/units.hpp"

namespace mn {

double timeline_throughput_at(const std::vector<TimelinePoint>& timeline, Duration t) {
  if (t.usec() <= 0) return 0.0;
  std::int64_t bytes = 0;
  for (const auto& pt : timeline) {
    if (pt.t.usec() > t.usec()) break;
    bytes = pt.bytes;
  }
  return throughput_mbps(bytes, t);
}

std::vector<TimelinePoint> timeline_since(const std::vector<TimelinePoint>& timeline,
                                          TimePoint start) {
  std::vector<TimelinePoint> out;
  out.reserve(timeline.size());
  for (const auto& pt : timeline) {
    out.push_back({TimePoint{(pt.t - start).usec()}, pt.bytes});
  }
  return out;
}

void settle_flow(FlowResult& result, const std::vector<TimelinePoint>& clock,
                 TimePoint start, std::int64_t bytes, Duration timeout,
                 const WatchdogResult& watchdog) {
  result.timeline = timeline_since(clock, start);
  result.max_stall = watchdog.max_stall;
  const std::int64_t observed = result.timeline.empty() ? 0 : result.timeline.back().bytes;
  result.completed = observed >= bytes;
  if (result.completed) {
    // Completion = when the byte count first reached the target.
    for (const auto& pt : result.timeline) {
      if (pt.bytes >= bytes) {
        result.completion_time = Duration{pt.t.usec()};
        break;
      }
    }
    result.throughput_mbps = throughput_mbps(bytes, result.completion_time);
  } else {
    result.completion_time = timeout;
    result.throughput_mbps = throughput_mbps(observed, timeout);
    // Both ends can finish short of `bytes` (MPTCP data dropped by a
    // middlebox); the watchdog then has no reason to give.
    result.failure_reason = watchdog.completed ? "incomplete" : watchdog.reason;
  }
}

FlowResult run_bulk_flow(Simulator& sim, DuplexPath& path, std::int64_t bytes,
                         Direction dir, const FlowOptions& options,
                         const InterfaceTap& client_tap) {
  TcpEndpoint client{sim, TcpConfig{}, std::make_unique<RenoCc>()};
  TcpEndpoint server{sim, TcpConfig{}, std::make_unique<RenoCc>()};
  if (client_tap) {
    client.set_transmit([&path, &client_tap, &sim](const Packet& p) {
      client_tap(sim.now(), PacketDir::kSent, p);
      path.send_up(p);
    });
    path.set_client_receiver([&client, &client_tap, &sim](const Packet& p) {
      client_tap(sim.now(), PacketDir::kReceived, p);
      client.handle_packet(p);
    });
  } else {
    client.set_transmit([&path](const Packet& p) { path.send_up(p); });
    path.set_client_receiver([&client](const Packet& p) { client.handle_packet(p); });
  }
  server.set_transmit([&path](const Packet& p) { path.send_down(p); });
  path.set_server_receiver([&server](const Packet& p) { server.handle_packet(p); });

  const TimePoint start = sim.now();
  FlowResult result;

  client.on_established = [&] { result.syn_rtt = sim.now() - start; };

  TcpEndpoint& sender = (dir == Direction::kUpload) ? client : server;
  sender.send_bytes(bytes);
  sender.close_when_done();

  server.listen();
  client.connect();

  // Progress = bytes moving or connection state changing; retransmit
  // counters are deliberately excluded so a blackholed flow trips the
  // watchdog instead of burning the whole timeout.
  const WatchdogResult watchdog = run_watched(
      sim, options.timeout, options.stall_limit.value_or(options.timeout),
      [&] {
        return client.state() == TcpState::kDone && server.state() == TcpState::kDone;
      },
      [&] {
        return std::tuple{client.bytes_acked() + client.bytes_delivered(),
                          server.bytes_acked() + server.bytes_delivered(), client.state(),
                          server.state()};
      });
  settle_flow(result,
              dir == Direction::kDownload ? client.delivered_timeline()
                                          : client.acked_timeline(),
              start, bytes, options.timeout, watchdog);
  result.retransmits = client.retransmit_count() + server.retransmit_count();

  // Freeze both ends so an aborted flow stops rescheduling RTO timers,
  // then detach path handlers: packets still in flight after this run
  // must not call into the endpoints we are about to destroy.
  client.freeze();
  server.freeze();
  path.set_client_receiver({});
  path.set_server_receiver({});
  return result;
}

Duration measure_ping_rtt(Simulator& sim, DuplexPath& path, int count) {
  Duration total{0};
  int completed = 0;
  // Echo server: bounce everything straight back.
  path.set_server_receiver([&path](const Packet& p) { path.send_down(p); });
  for (int i = 0; i < count; ++i) {
    bool got = false;
    const TimePoint sent = sim.now();
    path.set_client_receiver([&](const Packet&) {
      if (!got) {
        got = true;
        total += sim.now() - sent;
      }
    });
    Packet ping;
    ping.connection_id = 0xEC40u;  // out-of-band marker; no endpoint routing
    ping.payload = 56;             // ICMP echo payload size
    path.send_up(ping);
    const TimePoint deadline = sim.now() + sec(5);
    while (!got && sim.now() < deadline) {
      if (!sim.step()) break;
    }
    if (got) ++completed;
  }
  path.set_client_receiver({});
  path.set_server_receiver({});
  if (completed == 0) return sec(5);
  return Duration{total.usec() / completed};
}

}  // namespace mn
