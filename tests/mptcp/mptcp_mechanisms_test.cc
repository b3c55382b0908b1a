// Focused tests for the MPTCP v0.88 mechanisms: receive-window blocking,
// opportunistic reinjection, penalization, and the scheduler options.
#include <gtest/gtest.h>

#include "mptcp/testbed.hpp"

namespace mn {
namespace {

LinkSpec mk(double mbps, Duration delay, int queue = 64) {
  LinkSpec s;
  s.rate_mbps = mbps;
  s.one_way_delay = delay;
  s.queue_packets = queue;
  return s;
}

MptcpFlowResult run(const MpNetworkSetup& net, MptcpSpec spec, std::int64_t bytes) {
  Simulator sim;
  return run_mptcp_flow(sim, net, spec, bytes, Direction::kDownload);
}

TEST(MptcpMechanisms, TinyWindowThrottlesWhenSlowPathMustCarryData) {
  // Round-robin forces the slow, laggy path to carry half the chunks:
  // a small data-level window then couples the whole connection to the
  // slow path's in-order progress (Figure 7a's head-of-line blocking);
  // a large window decouples them.
  const auto net = symmetric_setup(mk(16, msec(8)), mk(2, msec(60), 150));
  MptcpSpec tiny;
  tiny.primary = PathId::kWifi;
  tiny.cc = CcAlgo::kDecoupled;
  tiny.scheduler = MpScheduler::kRoundRobin;
  tiny.opportunistic_reinjection = false;  // isolate the blocking effect
  tiny.receive_window_bytes = 64'000;
  MptcpSpec big = tiny;
  big.receive_window_bytes = 2'000'000;
  const auto t = run(net, tiny, 2'000'000);
  const auto b = run(net, big, 2'000'000);
  ASSERT_TRUE(t.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_LT(t.throughput_mbps, b.throughput_mbps);
}

TEST(MptcpMechanisms, WindowNeverOverrunsReceiveBuffer) {
  // Invariant: out-of-order data held at the receiver never exceeds the
  // configured window (plus one MSS of slack for an in-flight grant).
  Simulator sim;
  const auto net = symmetric_setup(mk(10, msec(5)), mk(2, msec(80), 150));
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.cc = CcAlgo::kDecoupled;
  spec.receive_window_bytes = 100'000;
  MptcpTestbed bed{sim, net, spec};
  bed.start_transfer(1'500'000, Direction::kDownload);
  std::int64_t worst = 0;
  while (!(bed.client().finished() && bed.server().finished()) &&
         sim.now() < TimePoint{sec(60).usec()}) {
    if (!sim.step()) break;
    const std::int64_t held =
        bed.client().data_delivered() - bed.client().data_delivered_in_order();
    worst = std::max(worst, held);
  }
  EXPECT_LE(worst, 100'000 + 2 * Packet::kMss);
}

TEST(MptcpMechanisms, ReinjectionRescuesSilentPathDeath) {
  // Full-MPTCP with a silently dying LTE path (tethered modem, no
  // carrier-loss signal): the chunks stranded on LTE can only reach the
  // client if the scheduler reinjects them on WiFi.  Without
  // reinjection the transfer hangs on the dead subflow's RTO ladder.
  auto run_scenario = [](bool reinjection) {
    Simulator sim;
    const auto net = symmetric_setup(mk(10, msec(10)), mk(5, msec(30)));
    MptcpSpec spec;
    spec.primary = PathId::kWifi;
    spec.cc = CcAlgo::kDecoupled;
    spec.opportunistic_reinjection = reinjection;
    MptcpTestbed bed{sim, net, spec};
    bed.start_transfer(2'000'000, Direction::kDownload);
    sim.schedule_at(TimePoint{msec(300).usec()},
                    [&bed] { bed.iface(PathId::kLte).unplug(); });
    // The reinjection=false arm is *expected* to stall out here — the
    // assertion below is on delivered bytes, not completion.
    (void)bed.run_until_finished(sec(30));
    return bed.client().data_delivered_in_order();
  };
  EXPECT_EQ(run_scenario(true), 2'000'000) << "reinjection must drain the dead path";
  EXPECT_LT(run_scenario(false), 2'000'000)
      << "without reinjection the stranded chunks cannot complete quickly";
}

TEST(MptcpMechanisms, RoundRobinSchedulerCompletesTransfers) {
  const auto net = symmetric_setup(mk(8, msec(10)), mk(8, msec(30)));
  MptcpSpec spec;
  spec.scheduler = MpScheduler::kRoundRobin;
  const auto r = run(net, spec, 1'000'000);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.subflow_timelines[0].back().bytes, 100'000);
  EXPECT_GT(r.subflow_timelines[1].back().bytes, 100'000);
}

TEST(MptcpMechanisms, SchedulersDifferInAllocation) {
  // Asymmetric RTTs: lowest-RTT favours the near path more than
  // round-robin does.
  const auto net = symmetric_setup(mk(10, msec(5)), mk(10, msec(60)));
  MptcpSpec lr;
  lr.scheduler = MpScheduler::kLowestRtt;
  lr.cc = CcAlgo::kDecoupled;
  MptcpSpec rr = lr;
  rr.scheduler = MpScheduler::kRoundRobin;
  const auto a = run(net, lr, 2'000'000);
  const auto b = run(net, rr, 2'000'000);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  const auto near_share = [](const MptcpFlowResult& r) {
    const double near = static_cast<double>(r.subflow_timelines[0].back().bytes);
    const double far = static_cast<double>(r.subflow_timelines[1].back().bytes);
    return near / (near + far);
  };
  EXPECT_GT(near_share(a), near_share(b) - 0.05);
}

TEST(MptcpMechanisms, PenalizationTamesBufferbloatedPath) {
  // Deep-buffered slow path: penalization keeps its RTT from starving
  // the aggregate; disabling it must never make things better by much.
  const auto net = symmetric_setup(mk(12, msec(8)), mk(3, msec(40), 300));
  MptcpSpec with;
  with.primary = PathId::kWifi;
  with.cc = CcAlgo::kDecoupled;
  MptcpSpec without = with;
  without.penalization = false;
  const auto a = run(net, with, 4'000'000);
  const auto b = run(net, without, 4'000'000);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_GT(a.throughput_mbps, b.throughput_mbps * 0.85);
}

TEST(MptcpMechanisms, OliaCompletesAndAggregates) {
  const auto net = symmetric_setup(mk(8, msec(10)), mk(8, msec(30)));
  MptcpSpec spec;
  spec.cc = CcAlgo::kOlia;
  const auto r = run(net, spec, 2'000'000);
  ASSERT_TRUE(r.completed);
  // Both paths carry data and the aggregate beats one link alone.
  EXPECT_GT(r.subflow_timelines[0].back().bytes, 200'000);
  EXPECT_GT(r.subflow_timelines[1].back().bytes, 200'000);
  EXPECT_GT(r.throughput_mbps, 8.0);
}

TEST(MptcpMechanisms, AllThreeCcAlgorithmsComplete) {
  const auto net = symmetric_setup(mk(10, msec(10)), mk(6, msec(30)));
  for (CcAlgo cc : {CcAlgo::kDecoupled, CcAlgo::kCoupled, CcAlgo::kOlia}) {
    MptcpSpec spec;
    spec.cc = cc;
    const auto r = run(net, spec, 500'000);
    EXPECT_TRUE(r.completed) << to_string(cc);
  }
}

}  // namespace
}  // namespace mn
