#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace mn {
namespace {

LinkSpec mk(double mbps, Duration delay) {
  LinkSpec s;
  s.rate_mbps = mbps;
  s.one_way_delay = delay;
  s.queue_packets = 64;
  return s;
}

MpNetworkSetup net(double wifi = 10, double lte = 8) {
  return symmetric_setup(mk(wifi, msec(10)), mk(lte, msec(30)));
}

TEST(RunTransportFlow, SinglePathUsesOnlyThatNetwork) {
  Simulator sim;
  const auto r = run_transport_flow(sim, net(), TransportConfig::single_path(PathId::kWifi),
                                    500'000, Direction::kDownload);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.subflow_timelines[0].empty());
  EXPECT_TRUE(r.subflow_timelines[1].empty());
}

TEST(RunTransportFlow, MptcpFillsSubflowTimelines) {
  Simulator sim;
  const auto r = run_transport_flow(sim, net(),
                                    TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled),
                                    500'000, Direction::kDownload);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.subflow_timelines[0].empty());
  EXPECT_EQ(r.subflow_paths[0], PathId::kWifi);
  EXPECT_EQ(r.subflow_paths[1], PathId::kLte);
}

TEST(RunTransportFlow, SinglePathOnSlowerLinkIsSlower) {
  Simulator a;
  const auto wifi = run_transport_flow(a, net(12, 3),
                                       TransportConfig::single_path(PathId::kWifi),
                                       1'000'000, Direction::kDownload);
  Simulator b;
  const auto lte = run_transport_flow(b, net(12, 3),
                                      TransportConfig::single_path(PathId::kLte),
                                      1'000'000, Direction::kDownload);
  ASSERT_TRUE(wifi.completed);
  ASSERT_TRUE(lte.completed);
  EXPECT_GT(wifi.throughput_mbps, lte.throughput_mbps);
}

TEST(SweepFlowSizes, ReturnsOnePointPerSize) {
  const std::vector<std::int64_t> sizes{10'000, 100'000, 1'000'000};
  const auto points = sweep_flow_sizes(net(), TransportConfig::single_path(PathId::kWifi),
                                       sizes);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(points[i].flow_bytes, sizes[i]);
    EXPECT_GT(points[i].throughput_mbps, 0.0);
  }
  // Larger flows amortize the handshake: throughput grows with size.
  EXPECT_LT(points[0].throughput_mbps, points[2].throughput_mbps);
}

TEST(SweepFlowSizes, DeterministicAcrossCalls) {
  const std::vector<std::int64_t> sizes{50'000};
  const auto cfg = TransportConfig::mptcp(PathId::kLte, CcAlgo::kDecoupled);
  const auto a = sweep_flow_sizes(net(), cfg, sizes);
  const auto b = sweep_flow_sizes(net(), cfg, sizes);
  EXPECT_DOUBLE_EQ(a[0].throughput_mbps, b[0].throughput_mbps);
}

// Golden determinism check of the parallel sweep: every point is a pure
// function of (net, config, size), so the worker count must never
// change a bit of any result.
TEST(SweepFlowSizes, ParallelSweepIsBitIdenticalToSerial) {
  std::vector<std::int64_t> sizes;
  for (std::int64_t kb = 20; kb <= 200; kb += 20) sizes.push_back(kb * 1000);
  const auto cfg = TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled);
  const auto serial = sweep_flow_sizes(net(), cfg, sizes, /*parallelism=*/0);
  for (int workers : {1, 4}) {
    const auto parallel = sweep_flow_sizes(net(), cfg, sizes, workers);
    ASSERT_EQ(parallel.size(), serial.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].flow_bytes, serial[i].flow_bytes);
      EXPECT_EQ(parallel[i].throughput_mbps, serial[i].throughput_mbps)
          << "workers=" << workers << " size=" << sizes[i];
      EXPECT_EQ(parallel[i].completion_time.millis(), serial[i].completion_time.millis());
    }
  }
}

}  // namespace
}  // namespace mn
