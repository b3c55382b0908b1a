#include "tcp/flow.hpp"

#include <gtest/gtest.h>

#include "net/trace_gen.hpp"

namespace mn {
namespace {

LinkSpec mk(double mbps, Duration delay) {
  LinkSpec s;
  s.rate_mbps = mbps;
  s.one_way_delay = delay;
  s.queue_packets = 64;  // a realistic access-link buffer
  return s;
}

TEST(RunBulkFlow, DownloadCompletesWithSaneThroughput) {
  Simulator sim;
  DuplexPath path{sim, mk(50, msec(10)), mk(10, msec(10))};
  const auto r = run_bulk_flow(sim, path, 1'000'000, Direction::kDownload);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.throughput_mbps, 5.0);
  EXPECT_LT(r.throughput_mbps, 10.0);
  EXPECT_GT(r.syn_rtt.usec(), msec(19).usec());
}

TEST(RunBulkFlow, UploadUsesUplinkCapacity) {
  Simulator sim;
  DuplexPath path{sim, mk(5, msec(10)), mk(50, msec(10))};
  const auto r = run_bulk_flow(sim, path, 1'000'000, Direction::kUpload);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.throughput_mbps, 3.0);
  EXPECT_LT(r.throughput_mbps, 5.0);
}

TEST(RunBulkFlow, ShortFlowDominatedByHandshake) {
  Simulator sim;
  DuplexPath path{sim, mk(50, msec(50)), mk(50, msec(50))};
  const auto r = run_bulk_flow(sim, path, 10'000, Direction::kDownload);
  EXPECT_TRUE(r.completed);
  // 1 RTT handshake + ~1 RTT data: completion must exceed 2 one-way
  // delays but a 10 KB flow should finish within ~4 RTTs.
  EXPECT_GE(r.completion_time.usec(), msec(150).usec());
  EXPECT_LE(r.completion_time.usec(), msec(450).usec());
}

TEST(RunBulkFlow, TimelineEndsAtFlowSize) {
  Simulator sim;
  DuplexPath path{sim, mk(20, msec(10)), mk(20, msec(10))};
  const auto r = run_bulk_flow(sim, path, 123'456, Direction::kDownload);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.timeline.back().bytes, 123'456);
}

TEST(RunBulkFlow, TraceDrivenLinkWorks) {
  Simulator sim;
  Rng rng{12};
  LinkSpec down;
  down.trace = std::make_shared<DeliveryTrace>(poisson_trace(12.0, sec(2), rng));
  down.one_way_delay = msec(15);
  down.queue_packets = 64;
  DuplexPath path{sim, mk(20, msec(15)), down};
  const auto r = run_bulk_flow(sim, path, 1'000'000, Direction::kDownload);
  EXPECT_TRUE(r.completed);
  // Poisson delivery is bursty; goodput lands well below the mean rate.
  EXPECT_GT(r.throughput_mbps, 5.0);
  EXPECT_LT(r.throughput_mbps, 12.5);
}

// Which limit stops a flow that cannot finish, and the stall it saw.
// A dead uplink loses the SYN, so nothing ever moves; a dead downlink
// loses only the SYN-ACK, and the server's move to SYN-RCVD ~10 ms in is
// the last progress.  Unset stall limits equal the timeout, which the
// deadline reaches first unless nothing moved at all.
TEST(RunBulkFlow, TimeoutReportsIncomplete) {
  struct Case {
    bool dead_uplink;
    FlowOptions options;
    const char* reason;
    std::int64_t max_stall_us;
  };
  const Case cases[] = {
      {true, {}, "stall: no progress for 120000 ms", 120'000'000},
      {true, {sec(5)}, "stall: no progress for 5000 ms", 5'000'000},
      {true, {sec(120), sec(30)}, "stall: no progress for 30000 ms", 30'000'000},
      {false, {}, "timeout", 119'989'968},
      {false, {sec(5)}, "timeout", 4'989'968},
      {false, {sec(120), sec(30)}, "stall: no progress for 30000 ms", 30'000'000},
  };
  for (const Case& c : cases) {
    Simulator sim;
    LinkSpec dead = mk(10, msec(10));
    dead.loss_rate = 1.0;
    DuplexPath path{sim, c.dead_uplink ? dead : mk(10, msec(10)),
                    c.dead_uplink ? mk(10, msec(10)) : dead};
    const auto r = run_bulk_flow(sim, path, 1'000'000, Direction::kDownload, c.options);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.completion_time.usec(), c.options.timeout.usec());
    EXPECT_EQ(r.failure_reason, c.reason);
    EXPECT_EQ(r.max_stall.usec(), c.max_stall_us);
  }
}

TEST(RunBulkFlow, SequentialFlowsOnSameSimulator) {
  Simulator sim;
  DuplexPath path1{sim, mk(20, msec(10)), mk(20, msec(10))};
  const auto r1 = run_bulk_flow(sim, path1, 100'000, Direction::kDownload);
  DuplexPath path2{sim, mk(20, msec(10)), mk(20, msec(10))};
  const auto r2 = run_bulk_flow(sim, path2, 100'000, Direction::kDownload);
  EXPECT_TRUE(r1.completed);
  EXPECT_TRUE(r2.completed);
  // Same conditions, same protocol: identical completion times.
  EXPECT_EQ(r1.completion_time.usec(), r2.completion_time.usec());
}

TEST(TimelineThroughputAt, ComputesAverageSinceStart) {
  std::vector<TimelinePoint> tl{{TimePoint{500'000}, 500'000},
                                {TimePoint{1'000'000}, 1'000'000}};
  // At t=1s, 1 MB delivered -> 8 Mbit/s.
  EXPECT_DOUBLE_EQ(timeline_throughput_at(tl, sec(1)), 8.0);
  // At t=0.75s the last point <= t is 500 KB -> 5.33 Mbit/s.
  EXPECT_NEAR(timeline_throughput_at(tl, msec(750)), 5.33, 0.01);
  EXPECT_DOUBLE_EQ(timeline_throughput_at(tl, Duration{0}), 0.0);
}

TEST(MeasurePingRtt, MatchesPathDelay) {
  Simulator sim;
  DuplexPath path{sim, mk(100, msec(30)), mk(100, msec(30))};
  const Duration rtt = measure_ping_rtt(sim, path, 10);
  EXPECT_GT(rtt.usec(), msec(60).usec());
  EXPECT_LT(rtt.usec(), msec(62).usec());
}

TEST(MeasurePingRtt, SurvivesTotalLoss) {
  Simulator sim;
  LinkSpec dead = mk(100, msec(10));
  dead.loss_rate = 1.0;
  DuplexPath path{sim, dead, mk(100, msec(10))};
  const Duration rtt = measure_ping_rtt(sim, path, 3);
  EXPECT_GE(rtt.usec(), sec(5).usec());  // timeout value
}

}  // namespace
}  // namespace mn
