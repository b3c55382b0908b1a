// Golden loss-recovery decisions on the §2 campaign's own link shapes.
//
// The campaign's bufferbloated links (Poisson WiFi behind a 64-packet
// queue, two-state LTE behind a 150-packet queue) drive slow start into
// heavy loss, so its results hinge on which segments the SACK
// scoreboard marks lost and when they go out again.  These flows pin
// those decisions: any change to the marking set, the retransmission
// order or the timers moves a completion time, a retransmit count or a
// timeline.  Flows with random loss and a blackhole add lost
// retransmissions, probes and RTOs, and two hand-driven senders isolate
// the re-marking rules for resent segments, which the campaign's flows
// exercise too rarely to pin.  The expected strings were recorded from
// the loss-recovery code as it stood before the scoreboard's
// bookkeeping was made incremental; that rewrite had to leave every one
// of them unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mptcp/testbed.hpp"
#include "net/packet.hpp"
#include "net/trace_gen.hpp"
#include "tcp/flow.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace mn {
namespace {

/// The campaign's probe link (measure/campaign.cc, make_link).
LinkSpec campaign_link(double mbps, Duration delay, bool lte, Rng& rng) {
  LinkSpec s;
  s.one_way_delay = delay;
  const Duration period = sec(2);
  if (lte) {
    TwoStateSpec ts;
    ts.good_mbps = mbps * 1.4;
    ts.bad_mbps = std::max(0.3, mbps * 0.4);
    ts.mean_dwell = msec(300);
    s.trace = std::make_shared<DeliveryTrace>(two_state_trace(ts, period, rng));
    s.queue_packets = 150;
  } else {
    s.trace = std::make_shared<DeliveryTrace>(poisson_trace(mbps, period, rng));
    s.queue_packets = 64;
  }
  return s;
}

/// 64-bit FNV-1a of a timeline's "t:bytes;" rendering.
std::uint64_t timeline_digest(const std::vector<TimelinePoint>& tl) {
  std::ostringstream out;
  for (const auto& pt : tl) out << pt.t.usec() << ":" << pt.bytes << ";";
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : out.str()) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string flow_signature(const FlowResult& r) {
  std::ostringstream out;
  out << r.completed << "|" << r.completion_time.usec() << "|" << r.syn_rtt.usec() << "|"
      << r.max_stall.usec() << "|" << r.retransmits << "|" << std::hex
      << timeline_digest(r.timeline);
  return out.str();
}

std::string mptcp_signature(const MptcpFlowResult& r) {
  std::ostringstream out;
  out << r.completed << "|" << r.completion_time.usec() << "|"
      << r.syn_rtt.usec() << "|" << r.max_stall.usec() << "|" << r.achieved_mp
      << "|" << std::hex << timeline_digest(r.timeline) << "|"
      << timeline_digest(r.subflow_timelines[0]) << "|"
      << timeline_digest(r.subflow_timelines[1]);
  return out.str();
}

struct TcpCase {
  const char* name;
  bool lte;
  double mbps;
  int delay_ms;
  Direction dir;
  std::uint64_t seed;
  const char* expected;
};

// 1 MB, as the campaign's probes.  Up- and downlink carry the same spec
// built from one RNG, so the uplink's trace is the second draw.
const TcpCase kTcpCases[] = {
    {"wifi_2mbps_40ms_down", false, 2.0, 40, Direction::kDownload, 1,
     "1|4334695|110538|477368|74|7e0a08376235530d"},
    {"wifi_6mbps_20ms_up", false, 6.0, 20, Direction::kUpload, 2,
     "1|1540072|41736|159856|97|dab1b3e6060dcd99"},
    {"wifi_15mbps_10ms_down", false, 15.0, 10, Direction::kDownload, 3,
     "1|603586|25483|65811|77|9b331f59bec9c2b"},
    {"wifi_30mbps_30ms_up", false, 30.0, 30, Direction::kUpload, 4,
     "1|640685|60404|98412|75|22098cf2959b0e4"},
    {"lte_3mbps_60ms_down", true, 3.0, 60, Direction::kDownload, 5,
     "1|4152689|122793|1170622|154|8191e1eeb0a01154"},
    {"lte_8mbps_35ms_up", true, 8.0, 35, Direction::kUpload, 6,
     "1|2025061|72784|355929|150|d750ee5f1e36fa1a"},
    {"lte_12mbps_25ms_down", true, 12.0, 25, Direction::kDownload, 7,
     "1|1393117|52259|257014|121|c8db13d26eadf3c4"},
    {"lte_1mbps_80ms_up", true, 1.0, 80, Direction::kUpload, 8,
     "1|14860453|175706|4938659|179|3bd83b5d5f736699"},
};

TEST(LossRecoveryGolden, CampaignLinkTcpFlowsKeepTheirDecisions) {
  std::uint64_t total_retransmits = 0;
  for (const TcpCase& c : kTcpCases) {
    Rng rng{c.seed};
    const LinkSpec up = campaign_link(c.mbps, msec(c.delay_ms), c.lte, rng);
    const LinkSpec down = campaign_link(c.mbps, msec(c.delay_ms), c.lte, rng);
    Simulator sim;
    DuplexPath path{sim, up, down};
    const FlowResult r = run_bulk_flow(sim, path, 1'000'000, c.dir);
    total_retransmits += r.retransmits;
    EXPECT_EQ(flow_signature(r), c.expected) << c.name;
  }
  // The cases exist to exercise loss recovery, not clean transfers.
  EXPECT_GT(total_retransmits, 100u);
}

// Random loss and a mid-transfer blackhole: here retransmissions are
// themselves lost, tail-loss probes fire and RTOs restart recovery, so
// resent segments are re-marked (RACK) as well as first transmissions.
TEST(LossRecoveryGolden, LossyAndBlackholedTcpFlowsKeepTheirDecisions) {
  struct LossyCase {
    const char* name;
    double mbps;
    int delay_ms;
    int queue;
    double loss;
    std::uint64_t seed;
    int blackhole_ms;  // downlink blackholed [blackhole_ms, +600 ms); 0 = none
    Direction dir;
    const char* expected;
  };
  const LossyCase cases[] = {
      {"loss2_4mbps_60ms_down", 4.0, 60, 64, 0.02, 1, 0, Direction::kDownload,
       "1|16195616|120160|309088|21|fd44bac81a92949b"},
      {"loss5_12mbps_20ms_down", 12.0, 20, 100, 0.05, 2, 0, Direction::kDownload,
       "1|7518124|40054|640081|37|973a912c92c85cb0"},
      {"loss5_6mbps_40ms_up", 6.0, 40, 64, 0.05, 3, 0, Direction::kUpload,
       "1|13037878|80106|296031|32|bd1e1f5309e3c712"},
      {"loss8_2mbps_30ms_down", 2.0, 30, 32, 0.08, 4, 0, Direction::kDownload,
       "1|16343108|60320|473673|70|6f5431879fef5d4b"},
      {"blackhole_10mbps_15ms_down", 10.0, 15, 100, 0.0, 5, 400, Direction::kDownload,
       "1|1751470|30064|775650|231|6ab3807e3d9b37b7"},
      {"blackhole_loss3_8mbps_25ms_down", 8.0, 25, 64, 0.03, 6, 700, Direction::kDownload,
       "1|7263165|3050080|3025040|27|bf3a61975a4f10db"},
  };
  for (const LossyCase& c : cases) {
    LinkSpec link;
    link.rate_mbps = c.mbps;
    link.one_way_delay = msec(c.delay_ms);
    link.queue_packets = c.queue;
    link.loss_rate = c.loss;
    link.loss_seed = c.seed;
    Simulator sim;
    DuplexPath path{sim, link, link};
    if (c.blackhole_ms > 0) {
      const TimePoint from = TimePoint{} + msec(c.blackhole_ms);
      sim.schedule_at(from, [&path] { path.downlink().set_blackhole(true); });
      sim.schedule_at(from + msec(600), [&path] { path.downlink().set_blackhole(false); });
    }
    const FlowResult r = run_bulk_flow(sim, path, 1'000'000, c.dir);
    EXPECT_EQ(flow_signature(r), c.expected) << c.name;
  }
}

// A sender driven by hand-made ACKs: after a handshake with a 100 ms
// RTT it sends segments 0..9 at 100 ms, and its tail-loss probe resends
// segment 9 at 250 ms.  `state()` is flight and cwnd in MSS, then every
// retransmitted segment in order.
struct HandDrivenSender {
  static constexpr std::int64_t kMss = Packet::kMss;
  Simulator sim;
  TcpEndpoint sender{sim, TcpConfig{}, std::make_unique<RenoCc>()};
  std::vector<std::int64_t> resent;  // segment numbers, in send order
  std::int64_t highest_sent = 0;

  HandDrivenSender() {
    sender.set_transmit([this](Packet p) {
      if (p.payload == 0) return;
      if (p.seq < highest_sent) resent.push_back((p.seq - 1) / kMss);
      highest_sent = std::max(highest_sent, p.seq + p.payload);
    });
    sender.connect();
    at(100);
    Packet syn_ack = ack(1);
    syn_ack.flags.syn = true;
    sender.handle_packet(syn_ack);
    sender.send_bytes(30 * kMss);
    at(250);
  }
  static std::int64_t seg(std::int64_t k) { return 1 + k * kMss; }
  void at(std::int64_t ms) { sim.run_until(TimePoint{} + msec(ms)); }
  static Packet ack(std::int64_t ack_seq, std::int64_t sack_from = 0,
                    std::int64_t sack_to = 0) {
    Packet p;
    p.flags.ack = true;
    p.ack_seq = ack_seq;
    if (sack_to > sack_from) {
      p.sack[0] = {seg(sack_from), seg(sack_to)};
      p.sack_count = 1;
    }
    return p;
  }
  std::string state() const {
    std::ostringstream out;
    out << sender.flight_bytes() / kMss << "|" << sender.cc().cwnd_bytes() / kMss << "|";
    for (const std::int64_t k : resent) out << k << ",";
    return out.str();
  }
};

// A probed segment below the FACK line is re-marked only once the
// rexmit window has passed since its resend, even when a segment sent a
// reorder window after it is SACKed: the never-resent rule must not
// apply to it.
TEST(LossRecoveryGolden, ResentSegmentWaitsForTheRexmitWindow) {
  HandDrivenSender h;
  ASSERT_EQ(h.resent, (std::vector<std::int64_t>{9}));
  h.at(280);
  h.sender.handle_packet(h.ack(h.seg(2)));  // segments 10..13 go out at 280 ms
  h.at(300);
  // SACK 12-13, sent 180 ms after 2..8 and 30 ms after the probe: 2..8
  // are lost, 9 was resent only 50 ms ago.
  h.sender.handle_packet(h.ack(h.seg(2), 12, 14));
  EXPECT_EQ(h.state(), "3|2|9,");  // in flight: 9, 10, 11
}

// A resend that aged while above the FACK line waits until the line
// passes it; if srtt has grown meanwhile, the wider rexmit window applies.
TEST(LossRecoveryGolden, ParkedResendIsReAgedAfterSrttGrows) {
  HandDrivenSender h;
  h.at(260);
  h.sender.handle_packet(h.ack(h.seg(2)));  // srtt 107.5 ms; 10..13 go out
  h.at(390);
  // SACK 10: 2..7 are lost; the probe of 9 is 140 ms old, past the 134 ms
  // window, but 9 is still above the FACK line.
  h.sender.handle_packet(h.ack(h.seg(2), 10, 11));
  h.at(400);
  // A 300 ms sample from segment 8 lifts srtt to 131.6 ms (window 164 ms)
  // and SACK 12-13 moves the FACK line past 9, whose probe is 150 ms old.
  h.sender.handle_packet(h.ack(h.seg(9), 12, 14));
  EXPECT_EQ(h.state(), "2|2|9,");  // in flight: 9, 11
}

TEST(LossRecoveryGolden, CampaignLinkMptcpFlowsKeepTheirDecisions) {
  struct MptcpCase {
    const char* name;
    double wifi_mbps;
    double lte_mbps;
    Direction dir;
    std::uint64_t seed;
    const char* expected;
  };
  const MptcpCase cases[] = {
      {"wifi4_lte10_down", 4.0, 10.0, Direction::kDownload, 11,
       "1|1066728|30552|19012|1|c5185f19598046ec|c04981d884e9eec8|c0779fcb274da247"},
      {"wifi12_lte3_up", 12.0, 3.0, Direction::kUpload, 12,
       "1|750356|31212|41428|1|70fcc9497c54163e|aa23b5068fd32c03|5e19b9074549f96c"},
  };
  for (const MptcpCase& c : cases) {
    Rng rng{c.seed};
    MpNetworkSetup setup;
    setup.wifi_up = campaign_link(c.wifi_mbps, msec(15), false, rng);
    setup.wifi_down = campaign_link(c.wifi_mbps, msec(15), false, rng);
    setup.lte_up = campaign_link(c.lte_mbps, msec(40), true, rng);
    setup.lte_down = campaign_link(c.lte_mbps, msec(40), true, rng);
    Simulator sim;
    const MptcpFlowResult r = run_mptcp_flow(sim, setup, MptcpSpec{}, 1'000'000, c.dir);
    EXPECT_EQ(mptcp_signature(r), c.expected) << c.name;
  }
}

}  // namespace
}  // namespace mn
