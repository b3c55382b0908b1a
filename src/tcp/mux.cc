#include "tcp/mux.hpp"

namespace mn {

void PacketMux::attach(std::uint64_t conn, int subflow, PacketHandler handler) {
  routes_[Key{conn, subflow}] = std::move(handler);
}

void PacketMux::detach(std::uint64_t conn, int subflow) {
  routes_.erase(Key{conn, subflow});
}

void PacketMux::dispatch(const Packet& p) {
  const auto it = routes_.find(Key{p.connection_id, p.subflow_id});
  if (it != routes_.end()) {
    it->second(p);
    return;
  }
  ++unroutable_;
}

}  // namespace mn
