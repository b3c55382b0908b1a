// Path composition: LinkSpec -> one-way pipelines -> duplex paths, plus
// the NetworkInterface wrapper that models interface up/down state
// (including the soft-disable vs silent-unplug distinction from the
// paper's Section 3.6 failure experiments).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/links.hpp"
#include "net/middlebox.hpp"

namespace mn {

/// Parameters of one link direction.  Exactly one of `rate_mbps` /
/// `trace` is the capacity model; if both are set the trace wins.
struct LinkSpec {
  std::optional<double> rate_mbps;  // fixed-rate link
  TracePtr trace;                   // Mahimahi-style trace-driven link
  Duration one_way_delay = msec(10);
  double loss_rate = 0.0;
  int queue_packets = 256;
  /// Seed for the Bernoulli loss stage.  When the spec is used through
  /// DuplexPath, each direction derives its own stream from this value
  /// via mix_seed(loss_seed, "up"/"down"), so a symmetric setup (same
  /// spec both ways) still gets independent up/down loss processes.  A
  /// standalone OneWayPipe uses the seed as given.
  std::uint64_t loss_seed = 1;
  /// Correlated (Gilbert-Elliott) loss active from t=0.  Usually left
  /// unset and switched on mid-run by the fault injector instead.
  std::optional<GeLossSpec> burst_loss;
  /// MPTCP-hostile middlebox on this direction from t=0 (campaign
  /// stripping sweeps); like burst_loss, usually installed mid-run by
  /// the fault injector instead.  Seeds fork per direction through
  /// DuplexPath (mix_seed with "up"/"down").
  std::optional<MiddleboxSpec> middlebox;
};

/// One direction: [blackhole gate] -> middlebox -> burst loss ->
/// [loss] -> capacity link -> propagation delay -> receiver.
///
/// Entry flattening: the middlebox and burst stages are pass-through
/// until a fault enables them, so the pipe wires its entry directly to
/// the first stage that actually does something — a packet on a clean
/// path pays zero disabled-stage hops.  The fault hooks rewire the
/// chain when a stage flips; a bypassed (disabled) stage sees no
/// packets and keeps zeroed counters, which still satisfies the
/// conservation invariant.
///
/// The fault hooks (set_blackhole, set_burst_loss, set_rate_mbps,
/// set_delay_spike) exist for the FaultInjector but are plain public
/// API: tests may drive them directly.
class OneWayPipe {
 public:
  OneWayPipe(Simulator& sim, const LinkSpec& spec);
  OneWayPipe(const OneWayPipe&) = delete;
  OneWayPipe& operator=(const OneWayPipe&) = delete;

  void send(const Packet& p);
  void set_receiver(PacketHandler h);

  // ---- fault hooks ----------------------------------------------------
  /// Silent blackhole: packets entering the pipe vanish without error.
  /// Packets already inside the pipeline still deliver (as on a real
  /// route withdrawal).  Restore with set_blackhole(false).
  void set_blackhole(bool on) { blackholed_ = on; }
  [[nodiscard]] bool blackholed() const { return blackholed_; }
  [[nodiscard]] std::uint64_t blackholed_packets() const { return blackholed_drops_; }

  /// Enable / reconfigure / clear Gilbert-Elliott burst loss mid-run.
  void set_burst_loss(const GeLossSpec& spec) {
    burst_->set_spec(spec);
    rewire();
  }
  void clear_burst_loss() {
    burst_->disable();
    rewire();
  }
  [[nodiscard]] const GilbertElliottLossBox& burst_stage() const { return *burst_; }

  /// Install / clear an MPTCP-hostile middlebox mid-run (fault
  /// injection; the spec's seed is used as given — direction forking
  /// already happened when the plan was built).
  void set_middlebox(const MiddleboxSpec& spec) {
    mbox_->set_spec(spec);
    rewire();
  }
  void clear_middlebox() {
    mbox_->disable();
    rewire();
  }
  [[nodiscard]] const MiddleboxBox& middlebox_stage() const { return *mbox_; }

  /// Crash or restore the link rate (fixed-rate links only; returns
  /// false for trace-driven links, which have no scalar rate to change).
  bool set_rate_mbps(double mbps);
  bool restore_rate();

  /// Add / clear an extra propagation delay on top of the spec's
  /// one-way delay (fault injection: delay spikes / route flaps).
  void set_delay_spike(Duration extra);
  void clear_delay_spike();

  // ---- introspection for invariant checks ------------------------------
  [[nodiscard]] std::int64_t link_queued() const { return link_->queued_packets(); }
  /// Per-stage conservation: accepted == delivered + dropped + queued
  /// for every stage in the pipeline (the chaos-soak invariant).
  [[nodiscard]] bool counters_consistent() const;

 private:
  /// Recompute the entry chain: each enabled stage forwards to the next
  /// enabled stage, and entry_ is the first of them (the link itself on
  /// a clean path).  Called at construction and whenever a fault hook
  /// flips a pass-through stage.
  void rewire();

  Simulator& sim_;
  std::unique_ptr<MiddleboxBox> mbox_;            // pass-through until enabled
  std::unique_ptr<GilbertElliottLossBox> burst_;  // pass-through until enabled
  std::unique_ptr<LossBox> loss_;       // null when loss_rate == 0
  std::unique_ptr<PacketStage> link_;   // RateLink or TraceLink
  std::unique_ptr<DelayBox> delay_;
  PacketStage* entry_ = nullptr;
  RateLink* rate_link_ = nullptr;       // link_ downcast when fixed-rate
  Duration base_delay_{0};
  double base_rate_mbps_ = 0.0;
  bool blackholed_ = false;
  std::uint64_t blackholed_drops_ = 0;
};

/// A bidirectional path between a client and a server.
///
/// Loss seeds: the two directions fork independent streams from each
/// spec's loss_seed (mix_seed with "up"/"down") so that duplex loss is
/// uncorrelated even when both directions share one LinkSpec.
class DuplexPath {
 public:
  DuplexPath(Simulator& sim, const LinkSpec& uplink, const LinkSpec& downlink);

  /// Client -> server direction.
  void send_up(const Packet& p) { up_.send(p); }
  /// Server -> client direction.
  void send_down(const Packet& p) { down_.send(p); }
  void set_server_receiver(PacketHandler h) { up_.set_receiver(std::move(h)); }
  void set_client_receiver(PacketHandler h) { down_.set_receiver(std::move(h)); }

  [[nodiscard]] OneWayPipe& uplink() { return up_; }
  [[nodiscard]] OneWayPipe& downlink() { return down_; }

 private:
  OneWayPipe up_;
  OneWayPipe down_;
};

/// Direction of a packet crossing an interface, from the client's view.
enum class PacketDir { kSent, kReceived };

/// Observer of interface activity: (time, direction, packet).  Drives the
/// Figure-15 timelines and the energy model.
using InterfaceTap = std::function<void(TimePoint, PacketDir, const Packet&)>;

/// A client-side network interface (the phone's WiFi or LTE radio) in
/// front of a DuplexPath.
///
/// Failure semantics (paper Section 3.6):
///  - disable_soft(): "multipath off" via iproute — the interface goes
///    down AND the endpoint is notified (on_down fires), so MPTCP can
///    fail over immediately.
///  - unplug(): physical removal — packets blackhole.  on_down fires
///    only if `reports_carrier_loss` is true (a locally attached radio
///    whose carrier loss the OS sees); a tethered USB modem that simply
///    vanishes reports nothing, reproducing the Figure-15g stall.
///  - plug_in()/enable(): restore connectivity and fire on_up.
class NetworkInterface {
 public:
  NetworkInterface(std::string name, Simulator& sim, DuplexPath& path,
                   bool reports_carrier_loss = true);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool is_up() const { return up_; }

  /// Client-side send; drops silently when the interface is down.
  void send(const Packet& p);
  /// Endpoint's receive hook (delivery is suppressed while down).
  void set_receiver(PacketHandler h);

  void set_tap(InterfaceTap tap) { tap_ = std::move(tap); }
  /// Subscribe to up/down notifications (bool: new up-state).
  void add_state_listener(std::function<void(bool)> listener);

  void disable_soft();
  /// "multipath on" via iproute: the interface comes back up and the
  /// endpoint is notified (counterpart of disable_soft()).
  void enable();
  void unplug();
  void plug_in();

  /// Packets discarded because the interface was down — outbound sends
  /// and inbound deliveries respectively.  These were the stack's only
  /// silently uncounted drop paths; the obs drop.iface_down counter and
  /// these totals move together.
  [[nodiscard]] std::uint64_t tx_dropped_down() const { return tx_dropped_down_; }
  [[nodiscard]] std::uint64_t rx_dropped_down() const { return rx_dropped_down_; }

 private:
  void set_state(bool up, bool notify);
  void note_down_drop(const Packet& p);

  std::string name_;
  Simulator& sim_;
  DuplexPath& path_;
  bool reports_carrier_loss_;
  bool up_ = true;
  std::uint64_t tx_dropped_down_ = 0;
  std::uint64_t rx_dropped_down_ = 0;
  PacketHandler receiver_;
  InterfaceTap tap_;
  std::vector<std::function<void(bool)>> listeners_;
};

}  // namespace mn
