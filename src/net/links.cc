#include "net/links.hpp"

#include <stdexcept>

#include "util/units.hpp"

namespace mn {

void PacketStage::note_drop_slow(obs::DropCause cause, const Packet& p) {
  obs()->packet_dropped(obs_sim_->now(), cause, p.wire_bytes());
}

void PacketStage::note_enqueue_slow(const Packet& p, std::int64_t depth) {
  obs()->packet_enqueued(obs_sim_->now(), p.wire_bytes(), depth);
}

void PacketStage::note_deliver_slow(const Packet& p) {
  obs()->packet_delivered(obs_sim_->now(), p.wire_bytes());
}

DelayBox::DelayBox(Simulator& sim, Duration delay) : sim_(sim), delay_(delay) {
  sink_ = sim_.register_sink([this](SinkSpan idxs) { deliver_batch(idxs); });
}

void DelayBox::accept(const Packet& p) {
  ++counters_.accepted;
  const std::uint32_t idx = pool_.put(p);
  sim_.schedule_item_after(delay_, sink_, idx);
}

void DelayBox::deliver_batch(SinkSpan idxs) {
  // The DelayBox is the pipeline exit, so this is the one place packets
  // count as delivered by the pipe (kPktDeliver); per-stage forwards in
  // the middle of the pipe are not separately recorded.
  for (const std::uint64_t idx : idxs) {
    // Take into a local: forward() may re-enter accept(), whose put()
    // can reuse or reallocate the slot.
    const Packet p = pool_.take(static_cast<std::uint32_t>(idx));
    note_deliver(p);
    forward(p);
  }
}

void LossBox::accept(const Packet& p) {
  ++counters_.accepted;
  if (rng_.chance(loss_rate_)) {
    ++counters_.dropped;
    note_drop(obs::DropCause::kRandomLoss, p);
    return;
  }
  forward(p);
}

void GilbertElliottLossBox::accept(const Packet& p) {
  ++counters_.accepted;
  if (enabled_) {
    // Step the chain first, then draw the loss from the new state: a
    // burst begins with the packet that triggers the transition.
    if (bad_) {
      if (rng_.chance(spec_.p_bad_to_good)) bad_ = false;
    } else {
      if (rng_.chance(spec_.p_good_to_bad)) bad_ = true;
    }
    if (rng_.chance(bad_ ? spec_.loss_bad : spec_.loss_good)) {
      ++counters_.dropped;
      note_drop(obs::DropCause::kBurstLoss, p);
      return;
    }
  }
  forward(p);
}

void GilbertElliottLossBox::set_spec(const GeLossSpec& spec) {
  spec_ = spec;
  enabled_ = true;
  bad_ = false;
}

void GilbertElliottLossBox::disable() {
  enabled_ = false;
  bad_ = false;
}

void ReorderBox::accept(const Packet& p) {
  ++counters_.accepted;
  if (rng_.chance(probability_)) {
    const Duration jitter{static_cast<std::int64_t>(
        rng_.uniform(0.5, 1.5) * static_cast<double>(extra_delay_.usec()))};
    const std::uint32_t idx = pool_.put(p);
    sim_.schedule_after(jitter, [this, idx] { forward(pool_.take(idx)); });
    return;
  }
  forward(p);
}

RateLink::RateLink(Simulator& sim, double mbps, int queue_packets)
    : sim_(sim), mbps_(mbps), queue_limit_(queue_packets) {
  if (mbps <= 0.0) throw std::invalid_argument("RateLink: rate must be positive");
  if (queue_packets <= 0) throw std::invalid_argument("RateLink: queue must hold >= 1 packet");
  // At most one drain completion is ever live, so the span is width-1;
  // the loop is defensive symmetry with the other sink stages.
  sink_ = sim_.register_sink([this](SinkSpan s) {
    for (std::size_t i = 0; i < s.size(); ++i) finish_head();
  });
}

void RateLink::set_rate(double mbps) {
  if (mbps <= 0.0) throw std::invalid_argument("RateLink: rate must be positive");
  if (mbps == mbps_) return;
  if (!sending_) {
    mbps_ = mbps;
    return;
  }
  // Re-plan the in-progress serialization: whatever the old rate already
  // put on the wire stays sent, the remainder continues at the new rate,
  // and every packet queued behind the head inherits the new rate when
  // its turn comes.
  sim_.cancel(drain_event_);
  const std::int64_t sent =
      std::min(head_wire_bytes_, bytes_at_rate(mbps_, sim_.now() - head_start_));
  head_wire_bytes_ -= sent;
  head_start_ = sim_.now();
  mbps_ = mbps;
  drain_event_ =
      sim_.schedule_item_after(transmission_time(head_wire_bytes_, mbps_), sink_, 0);
}

void RateLink::accept(const Packet& p) {
  ++counters_.accepted;
  if (queue_.size() >= static_cast<std::size_t>(queue_limit_)) {
    ++counters_.dropped;
    note_drop(obs::DropCause::kQueueOverflow, p);
    return;
  }
  note_enqueue(p, static_cast<std::int64_t>(queue_.size()) + 1);
  queue_.push_back(p);
  if (!sending_) begin_head();
}

void RateLink::begin_head() {
  sending_ = true;
  head_start_ = sim_.now();
  head_wire_bytes_ = queue_.front().wire_bytes();
  drain_event_ =
      sim_.schedule_item_after(transmission_time(head_wire_bytes_, mbps_), sink_, 0);
}

void RateLink::finish_head() {
  sending_ = false;
  // Pop into a local before forwarding: forward() can synchronously
  // re-enter accept() (tight loopback wiring), whose push_back may grow
  // the ring and may have restarted the serializer already.
  const Packet p = queue_.pop_front();
  forward(p);
  if (!sending_ && !queue_.empty()) begin_head();
}

TraceLink::TraceLink(Simulator& sim, TracePtr trace, int queue_packets)
    : sim_(sim), trace_(std::move(trace)), queue_limit_(queue_packets) {
  if (!trace_) throw std::invalid_argument("TraceLink: null trace");
  if (queue_packets <= 0) throw std::invalid_argument("TraceLink: queue must hold >= 1 packet");
  cursor_ = DeliveryTrace::Cursor{*trace_};
  // drain_armed_ guarantees a single live opportunity event; see
  // RateLink for why the loop is still written over the span.
  sink_ = sim_.register_sink([this](SinkSpan s) {
    for (std::size_t i = 0; i < s.size(); ++i) drain();
  });
}

void TraceLink::accept(const Packet& p) {
  ++counters_.accepted;
  if (queue_.size() >= static_cast<std::size_t>(queue_limit_)) {
    ++counters_.dropped;
    note_drop(obs::DropCause::kQueueOverflow, p);
    return;
  }
  note_enqueue(p, static_cast<std::int64_t>(queue_.size()) + 1);
  queue_.push_back(p);
  arm_drain();
}

void TraceLink::arm_drain() {
  if (drain_armed_ || queue_.empty()) return;
  const TimePoint when = cursor_.next(std::max(sim_.now(), next_allowed_));
  drain_armed_ = true;
  sim_.schedule_item_at(when, sink_, 0);
}

void TraceLink::drain() {
  drain_armed_ = false;
  // This opportunity is consumed regardless of how much it carries: the
  // whole MTU's worth of queued packets leaves in one contiguous sweep.
  next_allowed_ = sim_.now() + usec(1);
  std::int64_t budget = Packet::kMtu;
  while (!queue_.empty() && queue_.front().wire_bytes() <= budget) {
    budget -= queue_.front().wire_bytes();
    forward(queue_.pop_front());
  }
  arm_drain();
}

}  // namespace mn
