// End-to-end tests of the observability wiring: every layer of the
// stack records into an ObsHub installed via Simulator::set_obs, drop
// causes reconcile with stage/interface counters, campaign metrics are
// bit-identical across worker counts, and a watchdog-tripped chaos run
// leaves a parseable flight-recorder dump.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "faults/chaos.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "measure/campaign.hpp"
#include "energy/power_model.hpp"
#include "mptcp/testbed.hpp"
#include "net/path.hpp"
#include "sim/simulator.hpp"
#include "tcp/flow.hpp"
#include "util/inplace_function.hpp"

namespace mn {
namespace {

LinkSpec fixed_link(double mbps, Duration delay, int queue = 64, double loss = 0.0) {
  LinkSpec s;
  s.rate_mbps = mbps;
  s.one_way_delay = delay;
  s.queue_packets = queue;
  s.loss_rate = loss;
  return s;
}

Packet data_packet(std::int64_t payload = 1448) {
  Packet p;
  p.payload = payload;
  return p;
}

TEST(ObsWiring, BulkFlowPopulatesEveryLayerOfTheHub) {
  obs::ObsHub hub{1 << 12};
  Simulator sim;
  sim.set_obs(&hub);
  DuplexPath path{sim, fixed_link(10.0, msec(10)), fixed_link(10.0, msec(10))};
  const auto result = run_bulk_flow(sim, path, 200'000, Direction::kDownload,
                                    {sec(120), sec(30)});
  ASSERT_TRUE(result.completed);

  const auto snap = hub.snapshot();
  EXPECT_GT(snap.value_of("sim.events_scheduled"), 0);
  EXPECT_GT(snap.value_of("sim.events_fired"), 0);
  EXPECT_GT(snap.value_of("net.pkt_enqueued"), 0);
  EXPECT_GT(snap.value_of("net.pkt_delivered"), 0);
  const obs::SnapshotEntry* rtt = snap.find("tcp.rtt_usec");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->hist.count, 0u);
  const obs::SnapshotEntry* cwnd = snap.find("tcp.cwnd_bytes");
  ASSERT_NE(cwnd, nullptr);
  EXPECT_GT(cwnd->hist.count, 0u);

  // The flight recorder saw the same story.
  ASSERT_NE(hub.flight(), nullptr);
  bool saw_deliver = false;
  bool saw_rtt = false;
  for (const auto& e : hub.flight()->events()) {
    saw_deliver |= e.type == obs::FlightEventType::kPktDeliver;
    saw_rtt |= e.type == obs::FlightEventType::kRttSample;
  }
  EXPECT_TRUE(saw_deliver);
  EXPECT_TRUE(saw_rtt);
}

TEST(ObsWiring, QueueOverflowDropsAreCounted) {
  obs::ObsHub hub;
  Simulator sim;
  sim.set_obs(&hub);
  // Tiny queue on a slow link: slow start will overrun it.
  DuplexPath path{sim, fixed_link(1.0, msec(5), /*queue=*/4),
                  fixed_link(1.0, msec(5), /*queue=*/4)};
  (void)run_bulk_flow(sim, path, 300'000, Direction::kDownload, {sec(120), sec(30)});
  const auto snap = hub.snapshot();
  EXPECT_GT(snap.value_of("drop.queue_overflow"), 0);
  EXPECT_EQ(snap.value_of("drop.random_loss"), 0);
  EXPECT_EQ(snap.value_of("drop.blackhole"), 0);
}

TEST(ObsWiring, RandomLossDropsAreCounted) {
  obs::ObsHub hub;
  Simulator sim;
  sim.set_obs(&hub);
  DuplexPath path{sim, fixed_link(10.0, msec(5), 64, /*loss=*/0.05),
                  fixed_link(10.0, msec(5), 64, /*loss=*/0.05)};
  (void)run_bulk_flow(sim, path, 200'000, Direction::kDownload, {sec(120), sec(30)});
  EXPECT_GT(hub.snapshot().value_of("drop.random_loss"), 0);
}

TEST(ObsWiring, BurstLossDropsAreCounted) {
  obs::ObsHub hub;
  Simulator sim;
  sim.set_obs(&hub);
  DuplexPath path{sim, fixed_link(10.0, msec(1)), fixed_link(10.0, msec(1))};
  GeLossSpec ge;
  ge.loss_bad = 1.0;
  ge.p_good_to_bad = 1.0;  // enter Bad immediately, stay a while
  ge.p_bad_to_good = 0.1;
  path.uplink().set_burst_loss(ge);
  for (int i = 0; i < 50; ++i) path.send_up(data_packet());
  sim.run_until_idle();
  EXPECT_GT(hub.snapshot().value_of("drop.burst_loss"), 0);
}

TEST(ObsWiring, BlackholeDropsAreCounted) {
  obs::ObsHub hub;
  Simulator sim;
  sim.set_obs(&hub);
  DuplexPath path{sim, fixed_link(10.0, msec(1)), fixed_link(10.0, msec(1))};
  path.uplink().set_blackhole(true);
  for (int i = 0; i < 7; ++i) path.send_up(data_packet());
  sim.run_until_idle();
  const auto snap = hub.snapshot();
  EXPECT_EQ(snap.value_of("drop.blackhole"), 7);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.value_of("drop.blackhole")),
            path.uplink().blackholed_packets());
}

TEST(ObsWiring, IfaceDownDropsMatchInterfaceCounters) {
  obs::ObsHub hub;
  Simulator sim;
  sim.set_obs(&hub);
  DuplexPath path{sim, fixed_link(10.0, msec(1)), fixed_link(10.0, msec(1))};
  NetworkInterface iface{"wifi", sim, path};
  iface.set_receiver([](Packet) {});
  iface.unplug();

  // Outbound sends while down drop at the interface...
  for (int i = 0; i < 3; ++i) iface.send(data_packet());
  // ...and inbound deliveries while down drop on arrival.
  for (int i = 0; i < 2; ++i) path.send_down(data_packet());
  sim.run_until_idle();

  EXPECT_EQ(iface.tx_dropped_down(), 3u);
  EXPECT_EQ(iface.rx_dropped_down(), 2u);
  EXPECT_EQ(hub.snapshot().value_of("drop.iface_down"), 5);
}

TEST(ObsWiring, MptcpFlowRecordsSchedulerGrantsOnBothSubflows) {
  obs::ObsHub hub{1 << 12};
  Simulator sim;
  sim.set_obs(&hub);
  const MpNetworkSetup setup =
      symmetric_setup(fixed_link(8.0, msec(15)), fixed_link(6.0, msec(30)));
  MptcpSpec spec;  // Full-MPTCP, both subflows carry data
  const auto result = run_mptcp_flow(sim, setup, spec, 400'000, Direction::kDownload,
                                     {sec(120), sec(30)});
  ASSERT_TRUE(result.completed);
  const auto snap = hub.snapshot();
  EXPECT_GT(snap.value_of("mptcp.sched_grants_sf0"), 0);
  EXPECT_GT(snap.value_of("mptcp.sched_grants_sf1"), 0);
  bool saw_grant = false;
  for (const auto& e : hub.flight()->events()) {
    saw_grant |= e.type == obs::FlightEventType::kSchedGrant;
  }
  EXPECT_TRUE(saw_grant);
}

TEST(ObsWiring, FaultCountersReconcileArmedAppliedSkipped) {
  obs::ObsHub hub{256};
  Simulator sim;
  sim.set_obs(&hub);
  DuplexPath path{sim, fixed_link(10.0, msec(5)), fixed_link(10.0, msec(5))};
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &path);

  FaultPlan plan;
  plan.blackhole(msec(10), PathId::kWifi);
  plan.restore(msec(20), PathId::kWifi);
  plan.soft_down(msec(30), PathId::kWifi);  // no iface target -> skipped
  injector.arm(plan);
  sim.run_until_idle();

  const auto snap = hub.snapshot();
  EXPECT_EQ(snap.value_of("fault.armed"), 3);
  EXPECT_EQ(snap.value_of("fault.applied"), 2);
  EXPECT_EQ(snap.value_of("fault.skipped"), 1);
  EXPECT_EQ(injector.events_applied(), 2);
  EXPECT_EQ(injector.events_skipped(), 1);
}

TEST(ObsWiring, EnergyPublishRecordsTransitionsAndMillijouleGauges) {
  obs::ObsHub hub{256};
  EnergyMeter wifi{wifi_power_params()};
  EnergyMeter lte{lte_power_params()};
  wifi.add_activity(TimePoint{msec(100).usec()});
  wifi.add_activity(TimePoint{msec(150).usec()});
  lte.add_activity(TimePoint{msec(100).usec()});

  const auto horizon = TimePoint{sec(20).usec()};
  wifi.publish(hub, horizon, /*radio_id=*/0);
  lte.publish(hub, horizon, /*radio_id=*/1);

  const auto snap = hub.snapshot();
  // Each radio walks idle -> active -> tail (-> idle): >= 3 transitions each.
  EXPECT_GE(snap.value_of("energy.state_transitions"), 6);
  EXPECT_GT(snap.value_of("energy.wifi_mj"), 0);
  EXPECT_GT(snap.value_of("energy.lte_mj"), 0);
  // The 15 s LTE tail dwarfs WiFi's 200 ms one.
  EXPECT_GT(snap.value_of("energy.lte_mj"), snap.value_of("energy.wifi_mj"));
  bool saw_radio_state = false;
  for (const auto& e : hub.flight()->events()) {
    saw_radio_state |= e.type == obs::FlightEventType::kRadioState;
  }
  EXPECT_TRUE(saw_radio_state);
}

TEST(ObsWiring, InstrumentedHotPathsNeverFallBackToHeap) {
  const std::uint64_t before = inplace_function_heap_fallbacks();
  obs::ObsHub hub{1 << 12};
  {
    Simulator sim;
    sim.set_obs(&hub);
    DuplexPath path{sim, fixed_link(10.0, msec(10)), fixed_link(10.0, msec(10))};
    (void)run_bulk_flow(sim, path, 200'000, Direction::kDownload, {sec(120), sec(30)});
  }
  {
    Simulator sim;
    sim.set_obs(&hub);
    const MpNetworkSetup setup =
        symmetric_setup(fixed_link(8.0, msec(15)), fixed_link(6.0, msec(30)));
    (void)run_mptcp_flow(sim, setup, MptcpSpec{}, 200'000, Direction::kDownload,
                         {sec(120), sec(30)});
  }
  EXPECT_EQ(inplace_function_heap_fallbacks(), before);
  // The hub republishes the process-wide count as a gauge at snapshot time.
  EXPECT_EQ(hub.snapshot().value_of("util.inplace_heap_fallbacks"),
            static_cast<std::int64_t>(inplace_function_heap_fallbacks()));
}

std::vector<ClusterSpec> tiny_world() {
  return {make_cluster("FastWiFi", {40.0, -70.0}, 8, 0.10, 14.0),
          make_cluster("FastLTE", {10.0, 100.0}, 8, 0.85, 4.0)};
}

TEST(ObsWiring, ParallelCampaignMetricsAreByteIdenticalAcrossWorkerCounts) {
  CampaignOptions serial;
  serial.run_scale = 0.5;
  serial.incomplete_probability = 0.0;
  serial.parallelism = 1;
  CampaignOptions threaded = serial;
  threaded.parallelism = 4;

  const auto a = run_campaign(tiny_world(), serial);
  const auto b = run_campaign(tiny_world(), threaded);
  ASSERT_EQ(a.size(), b.size());
  // Per-run snapshots match...
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metrics.prometheus_text(), b[i].metrics.prometheus_text()) << i;
  }
  // ...and so does the plan-order reduction, byte for byte.
  EXPECT_EQ(merge_run_metrics(a).prometheus_text(),
            merge_run_metrics(b).prometheus_text());
  // The campaign did real work under observation.
  EXPECT_GT(merge_run_metrics(a).value_of("net.pkt_delivered"), 0);
}

TEST(ObsWiring, CampaignCsvRoundTripsMetricsColumns) {
  CampaignOptions opt;
  opt.run_scale = 0.25;
  opt.incomplete_probability = 0.0;
  const auto runs = run_campaign(tiny_world(), opt);

  const std::string text = to_csv(runs).str();
  EXPECT_NE(text.find("m_retransmits"), std::string::npos);
  const auto reloaded = from_csv(parse_csv(text));
  ASSERT_EQ(reloaded.size(), complete_runs(runs).size());
  // Re-export is stable: metric columns survive the round trip.
  EXPECT_EQ(to_csv(reloaded).str(), text);

  // A file without the metrics columns is rejected, not loaded with
  // silently zeroed metrics.
  const std::string legacy =
      "cluster,lat,lon,wifi_up,wifi_down,lte_up,lte_down,wifi_rtt_ms,lte_rtt_ms\n"
      "Old,40,-70,5,6,2,3,20,50\n";
  EXPECT_THROW((void)from_csv(parse_csv(legacy)), std::runtime_error);
}

TEST(ObsWiring, ChaosWatchdogTripDumpsReadableFlightRecorder) {
  ChaosSoakOptions options;
  options.max_bytes = 400'000;
  options.timeout = sec(60);
  options.stall_limit = sec(5);
  options.plan.horizon = sec(4);
  options.plan.max_events = 6;
  options.plan.restore_probability = 0.0;  // unrestored faults: trips guaranteed soon
  options.flight_recorder_events = 2048;
  options.flight_dump_dir = ::testing::TempDir();

  ChaosRunReport tripped;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    ChaosRunReport r = run_chaos_run(seed, options);
    EXPECT_TRUE(r.ok()) << "seed " << seed;
    if (!r.completed) {
      tripped = std::move(r);
      break;
    }
  }
  ASSERT_FALSE(tripped.completed) << "no seed tripped the watchdog";
  ASSERT_FALSE(tripped.flight_dump.empty());

  // The in-report dump parses and ends near the incident.
  const auto events = obs::FlightRecorder::parse(tripped.flight_dump);
  ASSERT_FALSE(events.empty());
  bool saw_fault = false;
  for (const auto& e : events) {
    saw_fault |= e.type == obs::FlightEventType::kFaultArm ||
                 e.type == obs::FlightEventType::kFaultFire;
  }
  // A 2048-event window may have scrolled past the arm records on a long
  // run, but the run's own metrics must agree a fault was applied.
  EXPECT_GT(tripped.metrics.value_of("fault.armed"), 0);
  (void)saw_fault;

  // The on-disk dump exists and parses to the same events.
  const std::string path = options.flight_dump_dir + "/chaos_flight_" +
                           std::to_string(tripped.seed) + ".mnfr";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, tripped.flight_dump);
  EXPECT_EQ(obs::FlightRecorder::parse(bytes).size(), events.size());
  std::remove(path.c_str());
}

TEST(ObsWiring, ChaosRunReportCarriesMetricsSnapshot) {
  ChaosSoakOptions options;
  options.max_bytes = 200'000;
  options.timeout = sec(60);
  options.stall_limit = sec(10);
  options.plan.horizon = sec(4);
  const ChaosRunReport r = run_chaos_run(91, options);
  EXPECT_GT(r.metrics.value_of("sim.events_fired"), 0);
  EXPECT_GT(r.metrics.value_of("net.pkt_delivered"), 0);
  // No recorder configured -> no dump, even on aborted runs.
  EXPECT_TRUE(r.flight_dump.empty());
}

}  // namespace
}  // namespace mn
