// The loss-recovery scoreboard audit, asserted after every event.
//
// TcpEndpoint keeps its loss-inference bookkeeping incrementally (a
// cursor over never-resent segments, queues of resent ones, a
// lowest-lost hint); scoreboard_consistent() recomputes what that
// bookkeeping summarises from the retransmission queue itself.  These
// flows step a lossy transfer one dispatch group at a time and check
// both ends after each step, across the paths that touch the
// bookkeeping: SACK recovery on a bufferbloated trace link, RTO
// recovery through a blackhole, and tail-loss probes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "net/path.hpp"
#include "net/trace_gen.hpp"
#include "tcp/tcp_endpoint.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mn {
namespace {

struct AuditedFlow {
  Simulator sim;
  DuplexPath path;
  TcpEndpoint client;
  TcpEndpoint server;

  AuditedFlow(const LinkSpec& up, const LinkSpec& down)
      : path(sim, up, down),
        client(sim, TcpConfig{}, std::make_unique<RenoCc>()),
        server(sim, TcpConfig{}, std::make_unique<RenoCc>()) {
    client.set_transmit([this](Packet p) { path.send_up(std::move(p)); });
    server.set_transmit([this](Packet p) { path.send_down(std::move(p)); });
    path.set_client_receiver([this](Packet p) { client.handle_packet(p); });
    path.set_server_receiver([this](Packet p) { server.handle_packet(p); });
  }
  ~AuditedFlow() {
    path.set_client_receiver({});
    path.set_server_receiver({});
  }

  /// Download `bytes`, auditing both ends after every step; returns the
  /// number of steps taken, or -1 at the first inconsistent one.
  std::int64_t download(std::int64_t bytes, Duration limit) {
    server.listen();
    client.connect();
    server.send_bytes(bytes);
    server.close_when_done();
    std::int64_t steps = 0;
    while (client.bytes_delivered() < bytes && sim.now() < TimePoint{} + limit &&
           sim.step()) {
      ++steps;
      if (!client.scoreboard_consistent() || !server.scoreboard_consistent()) {
        ADD_FAILURE() << "scoreboard inconsistent after step " << steps << " at t="
                      << sim.now().usec() << " us";
        return -1;
      }
    }
    EXPECT_EQ(client.bytes_delivered(), bytes);
    return steps;
  }
};

LinkSpec rate_link(double mbps, Duration delay, int queue) {
  LinkSpec s;
  s.rate_mbps = mbps;
  s.one_way_delay = delay;
  s.queue_packets = queue;
  return s;
}

TEST(ScoreboardAudit, HoldsThroughSackRecoveryOnABufferbloatedLink) {
  // The campaign's WiFi shape: Poisson opportunities behind 64 packets.
  Rng rng{21};
  LinkSpec wifi;
  wifi.one_way_delay = msec(20);
  wifi.queue_packets = 64;
  wifi.trace = std::make_shared<DeliveryTrace>(poisson_trace(8.0, sec(2), rng));
  AuditedFlow f{wifi, wifi};
  EXPECT_GT(f.download(2'000'000, sec(60)), 0);
  EXPECT_GT(f.server.retransmit_count(), 20u);
}

TEST(ScoreboardAudit, HoldsThroughRtoRecoveryAfterABlackhole) {
  const LinkSpec link = rate_link(10.0, msec(15), 100);
  AuditedFlow f{link, link};
  // Swallow the downlink mid-transfer: the window's tail is lost with
  // nothing behind it, the probe goes unanswered and the RTO fires.
  f.sim.schedule_at(TimePoint{} + msec(400), [&f] { f.path.downlink().set_blackhole(true); });
  f.sim.schedule_at(TimePoint{} + msec(1500),
                    [&f] { f.path.downlink().set_blackhole(false); });
  EXPECT_GT(f.download(1'500'000, sec(60)), 0);
  EXPECT_GT(f.server.rto_count(), 0u);
}

TEST(ScoreboardAudit, HoldsThroughTailLossProbesOnARandomlyLossyLink) {
  // Short lossy transfers: some lose their tail, with nothing behind it
  // to draw SACKs, and the probe timer resends the highest segment.
  std::uint64_t probes = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    LinkSpec down = rate_link(6.0, msec(25), 64);
    down.loss_rate = 0.05;
    down.loss_seed = seed;
    LinkSpec up = rate_link(6.0, msec(25), 64);
    up.loss_rate = 0.02;
    up.loss_seed = seed + 100;
    AuditedFlow f{up, down};
    EXPECT_GT(f.download(150'000, sec(60)), 0);
    probes += f.server.probe_count();
  }
  EXPECT_GT(probes, 0u);
}

}  // namespace
}  // namespace mn
