#include "world/port.hpp"

namespace mn::world {

CellPort::CellPort(Simulator& sim, CellBase& cell, double phy_mbps, int queue_packets)
    : sim_(sim), cell_(cell), phy_mbps_(phy_mbps), queue_limit_(queue_packets) {
  (void)sim_;
}

CellPort::~CellPort() { cell_.detach(station_); }

void CellPort::accept(const Packet& p) {
  ++counters_.accepted;
  if (queue_.size() >= static_cast<std::size_t>(queue_limit_)) {
    ++counters_.dropped;
    note_drop(obs::DropCause::kQueueOverflow, p);
    return;
  }
  note_enqueue(p, static_cast<std::int64_t>(queue_.size()) + 1);
  queue_.push_back(p);
  if (!cell_.is_attached(station_)) {
    // First byte after idle: join the contention set.  Service starts
    // one tick out (the cell's wake latency), like a radio waking up.
    station_ = cell_.attach(this, 0, phy_mbps_);
  }
}

std::int64_t CellPort::on_grant(std::uint32_t /*tag*/, std::int64_t offered_bytes) {
  credit_ += offered_bytes;
  std::int64_t used = offered_bytes;
  while (!queue_.empty() && queue_.front().wire_bytes() <= credit_) {
    credit_ -= queue_.front().wire_bytes();
    // Pop into a local: forward() may synchronously re-enter accept()
    // (tight loopback wiring), whose push_back may grow the ring; the
    // queue/attach state is consistent before the call.
    const Packet p = queue_.pop_front();
    forward(p);
  }
  if (queue_.empty()) {
    // Idle: refund the banked remainder (it may include carry from
    // earlier grants — refund at most what this grant offered) and
    // leave the contention set.
    const std::int64_t refund = std::min(credit_, used);
    used -= refund;
    credit_ = 0;
    cell_.detach(station_);
    station_ = StationId{};
  }
  return used;
}

}  // namespace mn::world
