#include "net/path.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/trace_gen.hpp"

namespace mn {
namespace {

LinkSpec fast_spec() {
  LinkSpec s;
  s.rate_mbps = 100.0;
  s.one_way_delay = msec(5);
  return s;
}

Packet data_packet(std::int64_t payload) {
  Packet p;
  p.payload = payload;
  return p;
}

TEST(OneWayPipe, DeliversWithLinkPlusPropagationDelay) {
  Simulator sim;
  LinkSpec spec;
  spec.rate_mbps = 12.0;  // 1500B -> 1ms serialization
  spec.one_way_delay = msec(20);
  OneWayPipe pipe{sim, spec};
  TimePoint arrival{};
  pipe.set_receiver([&](Packet) { arrival = sim.now(); });
  pipe.send(data_packet(1460));
  sim.run_until_idle();
  EXPECT_EQ(arrival.usec(), msec(21).usec());
}

TEST(OneWayPipe, TraceSpecUsesTraceLink) {
  Simulator sim;
  LinkSpec spec;
  spec.trace = std::make_shared<DeliveryTrace>(std::vector<Duration>{msec(4)}, msec(10));
  spec.one_way_delay = msec(1);
  OneWayPipe pipe{sim, spec};
  TimePoint arrival{};
  pipe.set_receiver([&](Packet) { arrival = sim.now(); });
  pipe.send(data_packet(100));
  sim.run_until_idle();
  EXPECT_EQ(arrival.usec(), msec(5).usec());
}

TEST(OneWayPipe, LossStageDrops) {
  Simulator sim;
  LinkSpec spec = fast_spec();
  spec.loss_rate = 1.0;  // drop everything
  OneWayPipe pipe{sim, spec};
  int delivered = 0;
  pipe.set_receiver([&](Packet) { ++delivered; });
  for (int i = 0; i < 10; ++i) pipe.send(data_packet(100));
  sim.run_until_idle();
  EXPECT_EQ(delivered, 0);
}

TEST(DuplexPath, BothDirectionsIndependent) {
  Simulator sim;
  DuplexPath path{sim, fast_spec(), fast_spec()};
  int at_server = 0;
  int at_client = 0;
  path.set_server_receiver([&](Packet) { ++at_server; });
  path.set_client_receiver([&](Packet) { ++at_client; });
  path.send_up(data_packet(10));
  path.send_up(data_packet(10));
  path.send_down(data_packet(10));
  sim.run_until_idle();
  EXPECT_EQ(at_server, 2);
  EXPECT_EQ(at_client, 1);
}

TEST(NetworkInterface, PassesTrafficWhenUp) {
  Simulator sim;
  DuplexPath path{sim, fast_spec(), fast_spec()};
  NetworkInterface iface{"wifi", sim, path};
  int at_server = 0;
  int at_client = 0;
  path.set_server_receiver([&](Packet) { ++at_server; });
  iface.set_receiver([&](Packet) { ++at_client; });
  iface.send(data_packet(10));
  path.send_down(data_packet(10));
  sim.run_until_idle();
  EXPECT_EQ(at_server, 1);
  EXPECT_EQ(at_client, 1);
}

TEST(NetworkInterface, DropsAllTrafficWhenDown) {
  Simulator sim;
  DuplexPath path{sim, fast_spec(), fast_spec()};
  NetworkInterface iface{"lte", sim, path};
  int received = 0;
  path.set_server_receiver([&](Packet) { FAIL() << "sent while down"; });
  iface.set_receiver([&](Packet) { ++received; });
  iface.disable_soft();
  iface.send(data_packet(10));
  path.send_down(data_packet(10));
  sim.run_until_idle();
  EXPECT_EQ(received, 0);
}

TEST(NetworkInterface, SoftDisableNotifiesListeners) {
  Simulator sim;
  DuplexPath path{sim, fast_spec(), fast_spec()};
  NetworkInterface iface{"lte", sim, path};
  std::vector<bool> events;
  iface.add_state_listener([&](bool up) { events.push_back(up); });
  iface.disable_soft();
  iface.plug_in();
  EXPECT_EQ(events, (std::vector<bool>{false, true}));
}

TEST(NetworkInterface, SilentUnplugDoesNotNotify) {
  Simulator sim;
  DuplexPath path{sim, fast_spec(), fast_spec()};
  NetworkInterface iface{"lte-usb", sim, path, /*reports_carrier_loss=*/false};
  int notifications = 0;
  iface.add_state_listener([&](bool) { ++notifications; });
  iface.unplug();
  EXPECT_FALSE(iface.is_up());
  EXPECT_EQ(notifications, 0);
  // Replug always notifies (the OS sees the device appear).
  iface.plug_in();
  EXPECT_EQ(notifications, 1);
}

TEST(NetworkInterface, CarrierReportingUnplugNotifies) {
  Simulator sim;
  DuplexPath path{sim, fast_spec(), fast_spec()};
  NetworkInterface iface{"wifi", sim, path, /*reports_carrier_loss=*/true};
  int down_events = 0;
  iface.add_state_listener([&](bool up) { down_events += up ? 0 : 1; });
  iface.unplug();
  EXPECT_EQ(down_events, 1);
}

TEST(NetworkInterface, TapSeesBothDirections) {
  Simulator sim;
  DuplexPath path{sim, fast_spec(), fast_spec()};
  NetworkInterface iface{"wifi", sim, path};
  int sent = 0;
  int received = 0;
  iface.set_tap([&](TimePoint, PacketDir dir, const Packet&) {
    (dir == PacketDir::kSent ? sent : received)++;
  });
  iface.set_receiver([](Packet) {});
  iface.send(data_packet(10));
  path.send_down(data_packet(10));
  sim.run_until_idle();
  EXPECT_EQ(sent, 1);
  EXPECT_EQ(received, 1);
}

TEST(NetworkInterface, RedundantStateChangeIsIdempotent) {
  Simulator sim;
  DuplexPath path{sim, fast_spec(), fast_spec()};
  NetworkInterface iface{"wifi", sim, path};
  int notifications = 0;
  iface.add_state_listener([&](bool) { ++notifications; });
  iface.plug_in();  // already up
  EXPECT_EQ(notifications, 0);
  iface.disable_soft();
  iface.disable_soft();
  EXPECT_EQ(notifications, 1);
}

TEST(NetworkInterface, EnableNotifiesAndRestoresTraffic) {
  Simulator sim;
  DuplexPath path{sim, fast_spec(), fast_spec()};
  NetworkInterface iface{"lte", sim, path};
  std::vector<bool> events;
  iface.add_state_listener([&](bool up) { events.push_back(up); });
  int at_server = 0;
  path.set_server_receiver([&](Packet) { ++at_server; });
  iface.disable_soft();
  iface.send(data_packet(10));  // dropped: interface is down
  iface.enable();
  iface.send(data_packet(10));
  sim.run_until_idle();
  EXPECT_EQ(events, (std::vector<bool>{false, true}));
  EXPECT_EQ(at_server, 1);
}

TEST(OneWayPipe, BlackholeSwallowsNewPacketsButDeliversInFlight) {
  Simulator sim;
  OneWayPipe pipe{sim, fast_spec()};
  int delivered = 0;
  pipe.set_receiver([&](Packet) { ++delivered; });
  pipe.send(data_packet(100));   // enters the pipeline before the fault
  pipe.set_blackhole(true);
  pipe.send(data_packet(100));   // vanishes silently
  pipe.send(data_packet(100));   // vanishes silently
  pipe.set_blackhole(false);
  pipe.send(data_packet(100));   // resumed
  sim.run_until_idle();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(pipe.blackholed_packets(), 2u);
  EXPECT_TRUE(pipe.counters_consistent());
}

TEST(OneWayPipe, RateChangeRejectedOnTraceDrivenLink) {
  Simulator sim;
  LinkSpec spec;
  spec.trace = std::make_shared<DeliveryTrace>(std::vector<Duration>{msec(4)}, msec(10));
  OneWayPipe pipe{sim, spec};
  EXPECT_FALSE(pipe.set_rate_mbps(1.0));
  EXPECT_FALSE(pipe.restore_rate());
  // Fixed-rate links accept the change.
  OneWayPipe fixed{sim, fast_spec()};
  EXPECT_TRUE(fixed.set_rate_mbps(1.0));
  EXPECT_TRUE(fixed.restore_rate());
}

TEST(OneWayPipe, BurstLossChainEntersAndLeavesBadState) {
  Simulator sim;
  OneWayPipe pipe{sim, fast_spec()};
  int delivered = 0;
  pipe.set_receiver([&](Packet) { ++delivered; });
  EXPECT_FALSE(pipe.burst_stage().enabled());

  GeLossSpec ge;  // deterministic: first packet flips Good -> Bad, drops
  ge.loss_good = 0.0;
  ge.loss_bad = 1.0;
  ge.p_good_to_bad = 1.0;
  ge.p_bad_to_good = 0.0;
  pipe.set_burst_loss(ge);
  for (int i = 0; i < 5; ++i) pipe.send(data_packet(100));
  sim.run_until_idle();
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(pipe.burst_stage().in_bad_state());

  pipe.clear_burst_loss();
  EXPECT_FALSE(pipe.burst_stage().enabled());
  EXPECT_FALSE(pipe.burst_stage().in_bad_state());
  pipe.send(data_packet(100));
  sim.run_until_idle();
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(pipe.counters_consistent());
}

TEST(OneWayPipe, CountersStayConsistentUnderCombinedFaults) {
  Simulator sim;
  LinkSpec spec = fast_spec();
  spec.loss_rate = 0.3;
  spec.queue_packets = 4;
  OneWayPipe pipe{sim, spec};
  pipe.set_receiver([](Packet) {});
  GeLossSpec ge;
  ge.loss_bad = 0.8;
  ge.p_good_to_bad = 0.2;
  for (int i = 0; i < 200; ++i) {
    if (i == 40) pipe.set_burst_loss(ge);
    if (i == 80) pipe.set_blackhole(true);
    if (i == 120) pipe.set_blackhole(false);
    if (i == 160) pipe.clear_burst_loss();
    pipe.send(data_packet(1460));
    if (i % 3 == 0) sim.run_until_idle();
  }
  sim.run_until_idle();
  EXPECT_TRUE(pipe.counters_consistent());
  EXPECT_EQ(pipe.link_queued(), 0);
}

// Satellite of the fault-injection PR: the two directions of a duplex
// path must not replay the same loss pattern when built from one spec.
TEST(DuplexPath, DirectionsDeriveIndependentLossStreams) {
  Simulator sim;
  LinkSpec lossy = fast_spec();
  lossy.loss_rate = 0.5;
  lossy.loss_seed = 9;

  // Standalone pipes use the seed as given: identical patterns.
  OneWayPipe a{sim, lossy};
  OneWayPipe b{sim, lossy};
  std::vector<std::int64_t> ids_a;
  std::vector<std::int64_t> ids_b;
  a.set_receiver([&](Packet p) { ids_a.push_back(p.payload); });
  b.set_receiver([&](Packet p) { ids_b.push_back(p.payload); });
  for (std::int64_t i = 0; i < 32; ++i) {
    a.send(data_packet(i));
    b.send(data_packet(i));
  }
  sim.run_until_idle();
  EXPECT_EQ(ids_a, ids_b);
  EXPECT_FALSE(ids_a.empty());
  EXPECT_LT(ids_a.size(), 32u);

  // Through DuplexPath each direction forks its own stream.
  DuplexPath path{sim, lossy, lossy};
  std::vector<std::int64_t> up_ids;
  std::vector<std::int64_t> down_ids;
  path.set_server_receiver([&](Packet p) { up_ids.push_back(p.payload); });
  path.set_client_receiver([&](Packet p) { down_ids.push_back(p.payload); });
  for (std::int64_t i = 0; i < 32; ++i) {
    path.send_up(data_packet(i));
    path.send_down(data_packet(i));
  }
  sim.run_until_idle();
  EXPECT_NE(up_ids, down_ids);
}

// Entry flattening: while middlebox and burst stages are disabled the
// pipe entry bypasses them entirely, so their counters must stay zero;
// fault toggles mid-run rewire the chain and the stages start (and
// stop) counting, with conservation holding throughout.
TEST(OneWayPipe, EntryBypassesDisabledStagesAndRewiresOnFaultToggles) {
  Simulator sim;
  OneWayPipe pipe{sim, fast_spec()};
  int delivered = 0;
  pipe.set_receiver([&](Packet) { ++delivered; });

  pipe.send(data_packet(100));
  sim.run_until_idle();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(pipe.middlebox_stage().counters().accepted, 0u)
      << "disabled middlebox saw traffic: entry not flattened";
  EXPECT_EQ(pipe.burst_stage().counters().accepted, 0u);

  MiddleboxSpec transparent;  // all probabilities zero, but enabled
  pipe.set_middlebox(transparent);
  pipe.send(data_packet(100));
  sim.run_until_idle();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(pipe.middlebox_stage().counters().accepted, 1u);

  pipe.clear_middlebox();
  pipe.send(data_packet(100));
  sim.run_until_idle();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(pipe.middlebox_stage().counters().accepted, 1u)
      << "cleared middlebox still on the path";
  EXPECT_TRUE(pipe.counters_consistent());
}

// The tap records each received packet just before the endpoint reacts
// to it, also when one trace-link opportunity delivers several packets
// on the same tick.
TEST(NetworkInterface, TapSeesEachReceivedPacketJustBeforeReceiver) {
  Simulator sim;
  LinkSpec down;
  down.trace = std::make_shared<DeliveryTrace>(std::vector<Duration>{msec(1)}, msec(2));
  down.one_way_delay = msec(5);
  DuplexPath path{sim, fast_spec(), down};
  NetworkInterface iface{"wifi", sim, path, false};
  std::vector<std::pair<char, std::int64_t>> log;  // ('t'ap | 'r'eceiver, seq)
  iface.set_tap([&](TimePoint, PacketDir dir, const Packet& p) {
    if (dir == PacketDir::kReceived) log.emplace_back('t', p.seq);
  });
  iface.set_receiver([&](const Packet& p) { log.emplace_back('r', p.seq); });
  for (std::int64_t i = 0; i < 3; ++i) {
    Packet p = data_packet(50);
    p.seq = i;
    path.send_down(p);
  }
  sim.run_until_idle();
  EXPECT_EQ(log, (std::vector<std::pair<char, std::int64_t>>{
                     {'t', 0}, {'r', 0}, {'t', 1}, {'r', 1}, {'t', 2}, {'r', 2}}));
}

}  // namespace
}  // namespace mn
