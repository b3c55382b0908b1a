#include "emu/packet_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "tcp/cc.hpp"

namespace mn {
namespace {

Packet data_packet(std::int64_t seq, std::int64_t payload) {
  Packet p;
  p.seq = seq;
  p.payload = payload;
  p.flags.ack = true;
  return p;
}

TEST(PacketLog, RecordsEntries) {
  PacketLog log;
  log.record("wifi", TimePoint{1000}, PacketDir::kSent, data_packet(0, 100));
  log.record("lte", TimePoint{2000}, PacketDir::kReceived, data_packet(100, 200));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.entries()[0].iface, "wifi");
  EXPECT_EQ(log.entries()[1].payload, 200);
}

TEST(PacketLog, EventTimesPerLane) {
  PacketLog log;
  log.record("wifi", TimePoint{sec(1).usec()}, PacketDir::kSent, data_packet(0, 1));
  log.record("lte", TimePoint{sec(2).usec()}, PacketDir::kSent, data_packet(0, 1));
  log.record("wifi", TimePoint{sec(3).usec()}, PacketDir::kReceived, data_packet(0, 1));
  const auto wifi = log.event_times("wifi");
  ASSERT_EQ(wifi.size(), 2u);
  EXPECT_DOUBLE_EQ(wifi[0], 1.0);
  EXPECT_DOUBLE_EQ(wifi[1], 3.0);
  EXPECT_EQ(log.event_times("lte").size(), 1u);
  EXPECT_TRUE(log.event_times("bluetooth").empty());
}

TEST(PacketLog, CumulativeReceivedBytes) {
  PacketLog log;
  log.record("wifi", TimePoint{1000}, PacketDir::kReceived, data_packet(0, 100));
  log.record("wifi", TimePoint{2000}, PacketDir::kSent, data_packet(0, 999));  // sent: no
  log.record("wifi", TimePoint{3000}, PacketDir::kReceived, data_packet(100, 50));
  EXPECT_EQ(log.bytes_received_by("wifi", TimePoint{1500}), 100);
  EXPECT_EQ(log.bytes_received_by("wifi", TimePoint{5000}), 150);
  EXPECT_EQ(log.bytes_received_by("lte", TimePoint{5000}), 0);
}

TEST(PacketLog, SerializeRoundTrip) {
  PacketLog log;
  Packet syn;
  syn.flags.syn = true;
  syn.subflow_id = 1;
  log.record("lte", TimePoint{42}, PacketDir::kSent, syn);
  log.record("wifi", TimePoint{99}, PacketDir::kReceived, data_packet(7, 1448));
  const auto text = log.serialize();
  const PacketLog back = PacketLog::deserialize(text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back.entries()[0].flags.syn);
  EXPECT_EQ(back.entries()[0].subflow_id, 1);
  EXPECT_EQ(back.entries()[1].payload, 1448);
  EXPECT_EQ(back.entries()[1].seq, 7);
  EXPECT_EQ(back.serialize(), text);
}

TEST(PacketLog, DeserializeRejectsGarbage) {
  EXPECT_THROW(PacketLog::deserialize("not a packet line\n"), std::exception);
  // A bad direction, a malformed or negative length, or a subflow id that
  // does not fit an int is a runtime_error that quotes the line.
  for (const std::string line : {
           "0 wifi X sf=0 - seq=0 ack=0 len=10",
           "0 wifi R sf=0 - seq=0 ack=0 len=10junk",
           "0 wifi R sf=0 - seq=0 ack=0 len=-5",
           "0 wifi R sf=0 - seq=0 ack=0 len=abc",
           "0 wifi R sf=4294967297 - seq=0 ack=0 len=10",
       }) {
    try {
      (void)PacketLog::deserialize(line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos) << e.what();
    }
  }
  // CRLF line endings still parse.
  const PacketLog crlf = PacketLog::deserialize("0 wifi R sf=0 - seq=0 ack=0 len=10\r\n");
  ASSERT_EQ(crlf.size(), 1u);
  EXPECT_EQ(crlf.entries()[0].payload, 10);
}

TEST(PacketLog, FileSaveLoad) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mn_packet_log_test.txt").string();
  PacketLog log;
  log.record("wifi", TimePoint{1}, PacketDir::kSent, data_packet(0, 10));
  log.save(path);
  const auto back = PacketLog::load(path);
  EXPECT_EQ(back.size(), 1u);
  std::remove(path.c_str());
}

TEST(PacketLog, TapIntegratesWithInterface) {
  Simulator sim;
  LinkSpec spec;
  spec.rate_mbps = 100.0;
  spec.one_way_delay = msec(1);
  DuplexPath path{sim, spec, spec};
  NetworkInterface iface{"wifi", sim, path};
  PacketLog log;
  iface.set_tap(log.tap_for("wifi"));
  iface.set_receiver([](Packet) {});
  iface.send(data_packet(0, 500));
  path.send_down(data_packet(1, 700));
  sim.run_until_idle();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.entries()[0].dir, PacketDir::kSent);
  EXPECT_EQ(log.entries()[1].dir, PacketDir::kReceived);
  EXPECT_EQ(log.bytes_received_by("wifi", TimePoint{sec(1).usec()}), 700);
}

TEST(PacketLog, BoundedCapacityEvictsOldestFirst) {
  PacketLog log;
  log.set_capacity(3);
  EXPECT_EQ(log.capacity(), 3u);
  for (int i = 0; i < 5; ++i) {
    log.record("wifi", TimePoint{i * 1000}, PacketDir::kSent, data_packet(i, 100));
  }
  // The newest window survives, oldest-first eviction.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.evicted(), 2u);
  EXPECT_EQ(log.entries()[0].seq, 2);
  EXPECT_EQ(log.entries()[1].seq, 3);
  EXPECT_EQ(log.entries()[2].seq, 4);
}

TEST(PacketLog, ShrinkingCapacityEvictsImmediately) {
  PacketLog log;
  for (int i = 0; i < 6; ++i) {
    log.record("lte", TimePoint{i}, PacketDir::kSent, data_packet(i, 1));
  }
  log.set_capacity(2);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.evicted(), 4u);
  EXPECT_EQ(log.entries()[0].seq, 4);
  // Capacity 0 returns to unbounded growth.
  log.set_capacity(0);
  log.record("lte", TimePoint{100}, PacketDir::kSent, data_packet(7, 1));
  log.record("lte", TimePoint{101}, PacketDir::kSent, data_packet(8, 1));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.evicted(), 4u);
}

TEST(PacketLog, ExportsPcap) {
  PacketLog log;
  Packet syn;
  syn.flags.syn = true;
  log.record("wifi", TimePoint{1000}, PacketDir::kSent, syn);
  log.record("wifi", TimePoint{2000}, PacketDir::kReceived, data_packet(1, 1448));

  const auto pcap = log.to_pcap();
  ASSERT_EQ(pcap.size(), 2u);
  EXPECT_TRUE(pcap[0].outbound);
  EXPECT_TRUE(pcap[0].syn);
  EXPECT_FALSE(pcap[1].outbound);
  EXPECT_EQ(pcap[1].payload, 1448);

  const std::string path = ::testing::TempDir() + "packet_log_test.pcap";
  log.save_pcap(path);
  std::error_code ec;
  EXPECT_GE(std::filesystem::file_size(path, ec), 24u + 2u * 16u);
  EXPECT_FALSE(ec);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mn
