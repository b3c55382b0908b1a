#include "tcp/mux.hpp"

#include <gtest/gtest.h>

namespace mn {
namespace {

Packet mk_packet(std::uint64_t conn, int subflow, bool syn = false) {
  Packet p;
  p.connection_id = conn;
  p.subflow_id = subflow;
  p.flags.syn = syn;
  return p;
}

TEST(PacketMux, RoutesByConnectionAndSubflow) {
  PacketMux mux;
  int a = 0;
  int b = 0;
  mux.attach(1, 0, [&](Packet) { ++a; });
  mux.attach(1, 1, [&](Packet) { ++b; });
  mux.dispatch(mk_packet(1, 0));
  mux.dispatch(mk_packet(1, 1));
  mux.dispatch(mk_packet(1, 1));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(PacketMux, UnroutableNonSynIsCounted) {
  PacketMux mux;
  mux.dispatch(mk_packet(9, 0));
  EXPECT_EQ(mux.unroutable_count(), 1u);
  // An unmatched SYN is counted like any other packet.
  mux.dispatch(mk_packet(7, 0, /*syn=*/true));
  EXPECT_EQ(mux.unroutable_count(), 2u);
}

TEST(PacketMux, DetachStopsRouting) {
  PacketMux mux;
  int n = 0;
  mux.attach(1, 0, [&](Packet) { ++n; });
  mux.detach(1, 0);
  mux.dispatch(mk_packet(1, 0));
  EXPECT_EQ(n, 0);
  EXPECT_EQ(mux.unroutable_count(), 1u);
  EXPECT_EQ(mux.endpoint_count(), 0u);
}

TEST(PacketMux, ReattachReplacesHandler) {
  PacketMux mux;
  int old_count = 0;
  int new_count = 0;
  mux.attach(1, 0, [&](Packet) { ++old_count; });
  mux.attach(1, 0, [&](Packet) { ++new_count; });
  mux.dispatch(mk_packet(1, 0));
  EXPECT_EQ(old_count, 0);
  EXPECT_EQ(new_count, 1);
}

}  // namespace
}  // namespace mn
