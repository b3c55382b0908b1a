// One end of an MPTCP connection (Linux MPTCP v0.88 semantics, as
// measured by the paper).
//
// The agent owns up to two TCP subflow endpoints (subflow 0 on the
// primary network, subflow 1 on the other), a data-level scheduler that
// hands byte ranges to subflows (implementing DataSource), data-level
// reassembly/ack tracking via interval sets, and the path-failure
// machinery: RST-signalled soft failures with reinjection, silent
// blackholes (the Figure-15g stall), and Backup/Single-Path modes.
//
// Both the client and the server side are instances of this class; the
// client additionally drives connect()/join scheduling.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mptcp/mptcp.hpp"
#include "mptcp/scheduler.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_endpoint.hpp"
#include "util/interval_set.hpp"

namespace mn {

class MptcpAgent final : public DataSource {
 public:
  MptcpAgent(Simulator& sim, std::uint64_t connection_id, MptcpSpec spec,
             bool is_client);
  ~MptcpAgent() override;

  // ---- wiring ---------------------------------------------------------
  /// How subflow `id` puts packets on its network.  Must be set for both
  /// subflows before connect()/listen().
  void set_transmit(int subflow_id, PacketHandler transmit);
  /// Feed a packet that arrived for this connection (any subflow).
  void handle_packet(const Packet& p);

  // ---- control --------------------------------------------------------
  void connect();  // client: SYN on primary, join the other after
  void listen();   // server: both subflows accept
  /// Enqueue data-level bytes for transmission to the peer.
  void send_data(std::int64_t bytes);
  /// Close every subflow once all enqueued data is data-level acked.
  void close_when_done();
  /// Interface state change on `path` (from NetworkInterface listeners).
  /// Soft failures arrive here; silent unplugs do not.
  void notify_path_state(PathId path, bool up);
  /// Freeze every subflow (stop all timers, go quiescent).  Used by the
  /// watchdog/abort paths so an aborted flow cannot keep rescheduling
  /// RTO timers and leak simulator events.
  void shutdown();

  // ---- DataSource (called by subflow endpoints) -------------------------
  std::optional<Chunk> take(std::int64_t max_bytes, int subflow_id) override;
  [[nodiscard]] bool exhausted() const override;

  // ---- callbacks --------------------------------------------------------
  std::function<void()> on_established;  // primary subflow up
  std::function<void(std::int64_t newly, std::int64_t total)> on_data_acked;
  std::function<void(std::int64_t total)> on_data_delivered;
  std::function<void()> on_closed;  // all subflows finished

  // ---- introspection ----------------------------------------------------
  /// Negotiation/fallback state machine (middlebox realism):
  /// kNegotiating -> kMultipath | kFallbackTcp | kSubflowRejected.
  [[nodiscard]] MpNegotiation negotiation() const { return negotiation_; }
  /// Whether MP_CAPABLE survived the primary handshake end to end.
  [[nodiscard]] bool negotiated_mp() const { return negotiated_mp_; }
  /// Whether a second subflow actually joined (multipath was *used*,
  /// not merely negotiated — the Aschenbrenner distinction).
  [[nodiscard]] bool achieved_mp() const { return achieved_mp_; }
  /// Why multipath degraded ("" while none): "capable_stripped",
  /// "syn_dropped", "join_rejected", or "mid_flow_dss".
  [[nodiscard]] const std::string& fallback_reason() const { return fallback_reason_; }
  [[nodiscard]] int join_attempts() const { return join_attempts_; }
  /// Receiver side: payload bytes discarded because a middlebox zeroed
  /// their DSS mapping and no safe reconstruction existed (upper bound —
  /// retransmissions may double-count).  Nonzero only under DSS faults.
  [[nodiscard]] std::int64_t mangled_discarded() const { return mangled_discarded_; }
  [[nodiscard]] std::int64_t data_acked() const { return acked_.total(); }
  [[nodiscard]] std::int64_t data_delivered() const { return received_.total(); }
  /// In-order data-level delivery (what the application could read).
  [[nodiscard]] std::int64_t data_delivered_in_order() const {
    return received_.contiguous_from(0);
  }
  [[nodiscard]] const std::vector<TimelinePoint>& acked_timeline() const {
    return acked_timeline_;
  }
  [[nodiscard]] const std::vector<TimelinePoint>& delivered_timeline() const {
    return delivered_timeline_;
  }
  [[nodiscard]] const TcpEndpoint& subflow(int id) const { return *subflows_[id].ep; }
  [[nodiscard]] PathId subflow_path(int id) const { return subflows_[id].path; }
  [[nodiscard]] bool subflow_dead(int id) const { return subflows_[id].dead; }
  [[nodiscard]] bool finished() const;

 private:
  struct Subflow {
    std::unique_ptr<TcpEndpoint> ep;
    PathId path = PathId::kWifi;
    PacketHandler transmit;
    /// Data ranges assigned, in subflow-send order: (data_seq, len).
    std::deque<std::pair<std::int64_t, std::int64_t>> mappings;
    /// Data ranges this subflow got subflow-acked, back-coalesced, in
    /// consumption order.  The MP_FAIL path requeues them wholesale:
    /// without a DATA_ACK in the model, the sender cannot know which
    /// "acked" bytes the receiver actually placed once DSS mangling is
    /// in play (the receiver's interval set dedups re-deliveries).
    std::vector<std::pair<std::int64_t, std::int64_t>> acked_log;
    /// Redundant scheduling: fresh grants issued to *other* subflows,
    /// queued for duplication here.  Entries already covered by the
    /// data-level ack set are skipped at serve time (first ACK wins).
    std::deque<std::pair<std::int64_t, std::int64_t>> dup_queue;
    bool dead = false;
    bool is_backup = false;
    bool connected_started = false;
  };

  [[nodiscard]] std::unique_ptr<CongestionController> make_cc();
  void setup_subflow(int id, PathId path, MpOption syn_option);
  void install_transmit(int id);
  void start_join();
  void pump_all();
  void on_subflow_acked(int id, std::int64_t newly);
  void on_subflow_segment(int id, const Packet& p);
  void kill_subflow(int id, bool send_rst);
  void maybe_close_subflows();
  void maybe_fire_closed();
  [[nodiscard]] int active_data_subflow() const;
  /// Scheduler decision-point inputs, rebuilt per consultation.
  [[nodiscard]] SchedContext sched_context() const;
  void fill_snapshots(std::array<SubflowSnapshot, 2>& out) const;
  /// Serve subflow `sf` from its duplicate-grant queue (redundant
  /// scheduling); false when nothing un-acked is queued.
  bool take_duplicate(Subflow& sf, std::int64_t max_bytes, Chunk& c);

  // -- negotiation / fallback state machine --
  void on_subflow_negotiated(int id, MpOption opt);
  void enter_handshake_fallback(const std::string& reason);
  /// True while subflow 1 is between its first MP_JOIN and either
  /// success or give-up (the window where an RST means "rejected",
  /// not "path died").
  [[nodiscard]] bool join_in_progress() const;
  void attempt_join();
  void fail_join_attempt();
  void give_up_join();
  void abandon_join();  // flow closing: stop retrying, not a failure
  void on_join_timer();
  /// MP_FAIL arrived on `id`: the peer saw mangled DSS options there.
  void on_mp_fail(int id);
  void send_mp_fail(int id);

  Simulator& sim_;
  std::uint64_t connection_id_;
  MptcpSpec spec_;
  bool is_client_;
  CoupledGroup group_;
  OliaGroup olia_group_;

  std::array<Subflow, 2> subflows_;

  /// The pluggable data-level scheduler / path policy (never null).
  std::unique_ptr<Scheduler> scheduler_;
  /// The policy denied allow_join for subflow 1; re-polled every pump
  /// (eMPTCP delayed subflow establishment).
  bool join_deferred_ = false;

  // Scheduler state (sender side).
  std::int64_t data_end_ = 0;       // total bytes enqueued
  std::int64_t next_data_seq_ = 0;  // next unassigned byte
  std::deque<std::pair<std::int64_t, std::int64_t>> reinject_;
  std::int64_t last_opportunistic_seq_ = -1;  // one reinjection per stall
  int last_grant_subflow_ = 1;                // round-robin scheduler state
  bool close_requested_ = false;
  bool subflow_close_issued_ = false;

  IntervalSet acked_;    // sender: data-level acked ranges
  IntervalSet received_;  // receiver: data-level received ranges
  std::vector<TimelinePoint> acked_timeline_;
  std::vector<TimelinePoint> delivered_timeline_;
  bool closed_fired_ = false;

  // Negotiation / fallback state.
  MpNegotiation negotiation_ = MpNegotiation::kNegotiating;
  std::string fallback_reason_;
  bool negotiated_mp_ = false;
  bool achieved_mp_ = false;
  /// Data-level fallback: the connection is (or became) plain single-
  /// path TCP, so a receiver may reconstruct data sequence numbers from
  /// subflow sequence space when a middlebox zeroed the DSS option.
  bool fallback_ = false;
  bool shutdown_ = false;
  int join_attempts_ = 0;       // connection attempts issued for subflow 1
  bool join_given_up_ = false;
  bool join_retry_pending_ = false;  // next timer fire = retry, not timeout
  std::int64_t mangled_discarded_ = 0;  // receiver: unplaceable mangled payload
  Timer join_timer_;
};

}  // namespace mn
