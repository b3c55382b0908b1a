#include "emu/packet_log.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace mn {

void PacketLog::record(const std::string& iface, TimePoint t, PacketDir dir,
                       const Packet& p) {
  PacketLogEntry e;
  e.t = t;
  e.iface = iface;
  e.dir = dir;
  e.subflow_id = p.subflow_id;
  e.flags = p.flags;
  e.seq = p.seq;
  e.ack = p.ack_seq;
  e.payload = p.payload;
  entries_.push_back(std::move(e));
  if (capacity_ != 0 && entries_.size() > capacity_) {
    entries_.pop_front();
    ++evicted_;
  }
}

void PacketLog::set_capacity(std::size_t max_entries) {
  capacity_ = max_entries;
  if (capacity_ == 0) return;
  while (entries_.size() > capacity_) {
    entries_.pop_front();
    ++evicted_;
  }
}

InterfaceTap PacketLog::tap_for(std::string iface) {
  return [this, iface = std::move(iface)](TimePoint t, PacketDir dir, const Packet& p) {
    record(iface, t, dir, p);
  };
}

std::vector<double> PacketLog::event_times(const std::string& iface) const {
  std::vector<double> out;
  for (const auto& e : entries_) {
    if (e.iface == iface) out.push_back(e.t.seconds());
  }
  return out;
}

std::int64_t PacketLog::bytes_received_by(const std::string& iface, TimePoint t) const {
  std::int64_t total = 0;
  for (const auto& e : entries_) {
    if (e.iface == iface && e.dir == PacketDir::kReceived && e.t <= t) {
      total += e.payload;
    }
  }
  return total;
}

std::string PacketLog::serialize() const {
  std::ostringstream os;
  for (const auto& e : entries_) {
    std::string flags;
    if (e.flags.syn) flags += "SYN,";
    if (e.flags.ack) flags += "ACK,";
    if (e.flags.fin) flags += "FIN,";
    if (e.flags.rst) flags += "RST,";
    if (flags.empty()) flags = "-";
    os << e.t.usec() << ' ' << e.iface << ' '
       << (e.dir == PacketDir::kSent ? 'S' : 'R') << " sf=" << e.subflow_id << ' '
       << flags << " seq=" << e.seq << " ack=" << e.ack << " len=" << e.payload << '\n';
  }
  return os.str();
}

PacketLog PacketLog::deserialize(const std::string& text) {
  PacketLog log;
  std::istringstream in(text);
  std::string line;
  auto bad_line = [&line](const std::string& why) {
    return std::runtime_error("PacketLog: bad line \"" + line + "\": " + why);
  };
  // A "<prefix><integer in [lo, hi]>" field, e.g. "len=10".
  auto field = [&](const std::string& token, const char* prefix,
                   std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                   std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
    if (token.rfind(prefix, 0) != 0) throw bad_line(std::string("expected ") + prefix);
    try {
      return parse_int(token.substr(std::strlen(prefix)), lo, hi);
    } catch (const std::runtime_error& e) {
      throw bad_line(e.what());
    }
  };
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::istringstream ls(line);
    PacketLogEntry e;
    std::string usecs;
    std::string dir;
    std::string sf;
    std::string flags;
    std::string seq;
    std::string ack;
    std::string len;
    if (!(ls >> usecs >> e.iface >> dir >> sf >> flags >> seq >> ack >> len)) {
      throw bad_line("expected 8 fields");
    }
    if (dir != "S" && dir != "R") throw bad_line("direction is not S or R");
    e.t = TimePoint{field(usecs, "")};
    e.dir = dir == "S" ? PacketDir::kSent : PacketDir::kReceived;
    e.subflow_id = static_cast<int>(field(sf, "sf=", std::numeric_limits<int>::min(),
                                          std::numeric_limits<int>::max()));
    e.flags.syn = flags.find("SYN") != std::string::npos;
    e.flags.ack = flags.find("ACK") != std::string::npos;
    e.flags.fin = flags.find("FIN") != std::string::npos;
    e.flags.rst = flags.find("RST") != std::string::npos;
    e.seq = field(seq, "seq=");
    e.ack = field(ack, "ack=");
    e.payload = field(len, "len=", 0);
    log.entries_.push_back(std::move(e));
  }
  return log;
}

void PacketLog::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("PacketLog: cannot write " + path);
  out << serialize();
}

PacketLog PacketLog::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("PacketLog: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize(buf.str());
}

std::vector<obs::PcapPacket> PacketLog::to_pcap() const {
  std::vector<obs::PcapPacket> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    obs::PcapPacket p;
    p.t_usec = e.t.usec();
    p.outbound = e.dir == PacketDir::kSent;
    p.subflow = static_cast<std::uint16_t>(e.subflow_id);
    p.syn = e.flags.syn;
    p.ack = e.flags.ack;
    p.fin = e.flags.fin;
    p.rst = e.flags.rst;
    p.seq = static_cast<std::uint32_t>(e.seq);
    p.ack_seq = static_cast<std::uint32_t>(e.ack);
    p.payload = e.payload;
    out.push_back(p);
  }
  return out;
}

void PacketLog::save_pcap(const std::string& path) const {
  obs::write_pcap(path, to_pcap());
}

}  // namespace mn
