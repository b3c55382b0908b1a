// Demultiplexing of packets arriving on a host: routes by
// (connection_id, subflow_id) to the owning endpoint.  Callers attach
// each endpoint before it connects or listens; a packet that matches no
// endpoint, SYN or not, is counted as unroutable.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "net/links.hpp"
#include "net/packet.hpp"

namespace mn {

class PacketMux {
 public:
  using Key = std::pair<std::uint64_t, int>;

  /// Route packets for (conn, subflow) to `handler`.  Re-attaching the
  /// same key replaces the previous handler.
  void attach(std::uint64_t conn, int subflow, PacketHandler handler);
  void detach(std::uint64_t conn, int subflow);

  void dispatch(const Packet& p);

  [[nodiscard]] std::size_t endpoint_count() const { return routes_.size(); }
  [[nodiscard]] std::uint64_t unroutable_count() const { return unroutable_; }

 private:
  std::map<Key, PacketHandler> routes_;
  std::uint64_t unroutable_ = 0;
};

}  // namespace mn
