// The simulated packet.
//
// One struct serves plain TCP and MPTCP: MPTCP-only fields (data-level
// sequence numbers, join/backup options) are simply unused by plain TCP.
// Pipeline stages pass packets by const reference, valid only for the
// call; a stage that keeps one (a queue, a flight pool) stores a copy,
// so no stage owns another's packet (see PacketHandler in links.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "util/time.hpp"

namespace mn {

/// TCP header flags (only the ones the model uses).
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
};

/// MPTCP option summary carried on a segment.
enum class MpOption : std::uint8_t {
  kNone = 0,
  kCapable,  // on the primary subflow's SYN
  kJoin,     // on a secondary subflow's SYN
  kFail,     // MP_FAIL on a pure ACK: DSS checksum failure seen upstream
};

struct Packet {
  // -- identification -------------------------------------------------
  std::uint64_t connection_id = 0;  // MPTCP connection / TCP flow token
  int subflow_id = 0;               // 0 for plain TCP; subflow index for MPTCP

  // -- TCP header -----------------------------------------------------
  TcpFlags flags;
  std::int64_t seq = 0;        // subflow-level sequence (byte offset)
  std::int64_t ack_seq = 0;    // cumulative subflow-level ACK
  std::int64_t payload = 0;    // payload bytes

  // -- SACK option ----------------------------------------------------
  // Up to 3 received-but-not-cumulatively-acked [start, end) ranges.
  std::array<std::pair<std::int64_t, std::int64_t>, 3> sack{};
  int sack_count = 0;

  // -- MPTCP options --------------------------------------------------
  MpOption mp_option = MpOption::kNone;
  std::int64_t data_seq = -1;  // data-level sequence of first payload byte
  std::int64_t data_ack = -1;  // cumulative data-level ACK

  // -- bookkeeping ----------------------------------------------------
  TimePoint sent_at{};  // stamped by the sending endpoint

  /// IPv4 + TCP header overhead (no options modelled at byte level).
  static constexpr std::int64_t kHeaderBytes = 40;
  /// Maximum segment payload (1500 MTU - 40 header - 12 option room).
  static constexpr std::int64_t kMss = 1448;
  /// Wire MTU used by trace-driven links (Mahimahi convention).
  static constexpr std::int64_t kMtu = 1500;

  [[nodiscard]] std::int64_t wire_bytes() const { return kHeaderBytes + payload; }
  [[nodiscard]] bool is_control() const { return payload == 0; }
};

}  // namespace mn
