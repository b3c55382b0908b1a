// CellPort: full packet fidelity through a contended cell.
//
// The fluid flows of shared_world.hpp trade packets for byte backlogs
// to reach 10^5-10^6 users.  CellPort is the opposite trade for
// endpoint-scale experiments: a PacketStage that replaces the private
// RateLink in a real TCP/MPTCP wiring, holding a DropTail queue that is
// drained not by its own serializer but by the grants of a shared
// WifiCell or LteSector.  Many real endpoints attached to one cell then
// experience genuine airtime/PF contention — queueing delay grows with
// the active-station count, service comes in per-tick bursts, and
// detaching is automatic when the queue drains (the station leaves the
// contention set and re-associates on the next packet, paying the
// service-tick attach latency like a waking radio).
//
// Grant credit that exceeds the head packet is banked (carry credit) so
// slow stations with big packets still progress; unused credit is
// returned to the cell (and thus the shared backhaul) when the queue
// empties.
#pragma once

#include <cstdint>

#include "net/links.hpp"
#include "world/cell.hpp"

namespace mn::world {

class CellPort final : public PacketStage, public GrantSink {
 public:
  /// `phy_mbps` is this station's own link-layer rate on the cell.
  CellPort(Simulator& sim, CellBase& cell, double phy_mbps, int queue_packets);
  ~CellPort() override;

  void accept(const Packet& p) override;
  [[nodiscard]] std::int64_t queued_packets() const override {
    return static_cast<std::int64_t>(queue_.size());
  }

  std::int64_t on_grant(std::uint32_t tag, std::int64_t offered_bytes) override;

  [[nodiscard]] bool attached() const { return cell_.is_attached(station_); }

 private:
  Simulator& sim_;
  CellBase& cell_;
  double phy_mbps_;
  int queue_limit_;
  PacketRing queue_;
  StationId station_;         // valid while the queue is non-empty
  std::int64_t credit_ = 0;   // banked grant bytes (< head wire size)
};

}  // namespace mn::world
