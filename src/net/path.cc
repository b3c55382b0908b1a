#include "net/path.hpp"

namespace mn {

OneWayPipe::OneWayPipe(Simulator& sim, const LinkSpec& spec) : sim_(sim) {
  if (spec.trace) {
    link_ = std::make_unique<TraceLink>(sim, spec.trace, spec.queue_packets);
  } else {
    base_rate_mbps_ = spec.rate_mbps.value_or(10.0);
    auto rl = std::make_unique<RateLink>(sim, base_rate_mbps_, spec.queue_packets);
    rate_link_ = rl.get();
    link_ = std::move(rl);
  }
  base_delay_ = spec.one_way_delay;
  delay_ = std::make_unique<DelayBox>(sim, base_delay_);
  link_->set_next([d = delay_.get()](const Packet& p) { d->accept(p); });
  const std::uint64_t burst_seed =
      spec.burst_loss ? spec.burst_loss->seed : mix_seed(spec.loss_seed, "burst");
  burst_ = std::make_unique<GilbertElliottLossBox>(burst_seed);
  if (spec.burst_loss) burst_->set_spec(*spec.burst_loss);
  if (spec.loss_rate > 0.0) {
    loss_ = std::make_unique<LossBox>(Rng{spec.loss_seed}, spec.loss_rate);
  }
  // The middlebox sits at the pipe entry (an in-network box sees the
  // packet before the loss/capacity model does); pass-through until a
  // spec is installed here or by the fault injector.
  const std::uint64_t mbox_seed =
      spec.middlebox ? spec.middlebox->seed : mix_seed(spec.loss_seed, "mbox");
  mbox_ = std::make_unique<MiddleboxBox>(mbox_seed);
  if (spec.middlebox && !spec.middlebox->trivial()) mbox_->set_spec(*spec.middlebox);
  rewire();
  // Every owned stage reports to the hub installed on this simulator
  // (if any): the per-cause drop counters below each drop site stay in
  // lock-step with the stage counters the soak invariants check.
  mbox_->attach_obs(sim);
  burst_->attach_obs(sim);
  if (loss_) loss_->attach_obs(sim);
  link_->attach_obs(sim);
  delay_->attach_obs(sim);
}

void OneWayPipe::rewire() {
  // Build the entry chain back-to-front out of the stages that are
  // actually active; a disabled pass-through stage is bypassed
  // entirely, so a packet on a clean path goes straight to the link.
  // RNG streams are unaffected: disabled stages never draw.
  PacketStage* tail = link_.get();
  if (loss_) {
    loss_->set_next([n = tail](const Packet& p) { n->accept(p); });
    tail = loss_.get();
  }
  if (burst_->enabled()) {
    burst_->set_next([n = tail](const Packet& p) { n->accept(p); });
    tail = burst_.get();
  }
  if (mbox_->enabled()) {
    mbox_->set_next([n = tail](const Packet& p) { n->accept(p); });
    tail = mbox_.get();
  }
  entry_ = tail;
}

void OneWayPipe::send(const Packet& p) {
  if (blackholed_) {
    ++blackholed_drops_;
    if (auto* o = sim_.obs()) {
      o->packet_dropped(sim_.now(), obs::DropCause::kBlackhole, p.wire_bytes());
    }
    return;
  }
  entry_->accept(p);
}

void OneWayPipe::set_receiver(PacketHandler h) { delay_->set_next(std::move(h)); }

bool OneWayPipe::set_rate_mbps(double mbps) {
  if (!rate_link_) return false;
  rate_link_->set_rate(mbps);
  return true;
}

bool OneWayPipe::restore_rate() {
  if (!rate_link_) return false;
  rate_link_->set_rate(base_rate_mbps_);
  return true;
}

void OneWayPipe::set_delay_spike(Duration extra) { delay_->set_delay(base_delay_ + extra); }

void OneWayPipe::clear_delay_spike() { delay_->set_delay(base_delay_); }

bool OneWayPipe::counters_consistent() const {
  const auto ok = [](const PacketStage& s) {
    const StageCounters& c = s.counters();
    return c.accepted == c.delivered + c.dropped +
                             static_cast<std::uint64_t>(s.queued_packets());
  };
  if (loss_ && !ok(*loss_)) return false;
  return ok(*mbox_) && ok(*burst_) && ok(*link_) && ok(*delay_);
}

namespace {

/// Per-direction spec: fork the loss seeds so up/down streams are
/// independent even when both directions were built from one LinkSpec.
LinkSpec direction_spec(LinkSpec s, std::string_view dir) {
  s.loss_seed = mix_seed(s.loss_seed, dir);
  if (s.burst_loss) s.burst_loss->seed = mix_seed(s.burst_loss->seed, dir);
  if (s.middlebox) s.middlebox->seed = mix_seed(s.middlebox->seed, dir);
  return s;
}

}  // namespace

DuplexPath::DuplexPath(Simulator& sim, const LinkSpec& uplink, const LinkSpec& downlink)
    : up_(sim, direction_spec(uplink, "up")), down_(sim, direction_spec(downlink, "down")) {}

NetworkInterface::NetworkInterface(std::string name, Simulator& sim, DuplexPath& path,
                                   bool reports_carrier_loss)
    : name_(std::move(name)),
      sim_(sim),
      path_(path),
      reports_carrier_loss_(reports_carrier_loss) {
  path_.set_client_receiver([this](const Packet& p) {
    if (!up_) {  // radio is off/unplugged: nothing arrives
      ++rx_dropped_down_;
      note_down_drop(p);
      return;
    }
    if (tap_) tap_(sim_.now(), PacketDir::kReceived, p);
    if (receiver_) receiver_(p);
  });
}

void NetworkInterface::send(const Packet& p) {
  if (!up_) {
    ++tx_dropped_down_;
    note_down_drop(p);
    return;
  }
  if (tap_) tap_(sim_.now(), PacketDir::kSent, p);
  path_.send_up(p);
}

void NetworkInterface::note_down_drop(const Packet& p) {
  if (auto* o = sim_.obs()) {
    o->packet_dropped(sim_.now(), obs::DropCause::kIfaceDown, p.wire_bytes());
  }
}

void NetworkInterface::set_receiver(PacketHandler h) { receiver_ = std::move(h); }

void NetworkInterface::add_state_listener(std::function<void(bool)> listener) {
  listeners_.push_back(std::move(listener));
}

void NetworkInterface::set_state(bool up, bool notify) {
  if (up_ == up) return;
  up_ = up;
  if (notify) {
    for (auto& l : listeners_) l(up_);
  }
}

void NetworkInterface::disable_soft() {
  // "multipath off" via iproute: the interface is still physically able
  // to transmit while the path manager reacts, so listeners run *before*
  // the interface stops carrying traffic (this is how the subflow RST
  // escapes; contrast with unplug()).
  if (!up_) return;
  for (auto& l : listeners_) l(false);
  up_ = false;
}

void NetworkInterface::enable() { set_state(true, /*notify=*/true); }

void NetworkInterface::unplug() { set_state(false, /*notify=*/reports_carrier_loss_); }

void NetworkInterface::plug_in() { set_state(true, /*notify=*/true); }

}  // namespace mn
