// Unidirectional packet-pipeline stages: loss, delay, fixed-rate link,
// and the Mahimahi-style trace-driven link.
//
// A stage accepts packets and forwards them to the next handler, possibly
// later (simulated time) and possibly never (drops).  Stages are composed
// left-to-right by Path (see path.hpp).  All stages keep simple counters
// so tests and benches can assert on queue behaviour.
//
// Scheduling discipline: stages never capture a Packet (~120 bytes) in a
// simulator callback.  Delayed packets park either in the stage's own
// queue (RateLink, TraceLink) or in a FlightPool slot (DelayBox,
// ReorderBox), and the stage schedules a *sink item* — the bare slot
// index, 8 bytes in the event's cold slot — instead of a closure.  The
// simulator hands a whole tick's worth of same-stage firings back as
// one span (see Simulator sinks); DelayBox walks it and forwards each
// packet through the one per-packet handler.  ReorderBox keeps the
// classic {this, index} closure: its jittered deliveries are rare.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/delivery_trace.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/inplace_function.hpp"
#include "util/rng.hpp"

namespace mn {

/// Inter-stage handler: set once at wiring time, invoked per packet.
/// The packet is passed by reference and is valid only for the duration
/// of the call; a stage that keeps it (a queue, a flight pool) copies
/// it.  Callers never hand down a reference into storage the callee can
/// change: forward() may re-enter accept() on the same stage, so a stage
/// pops a queued packet into a local before forwarding it.
/// Inline capacity is generous (128 bytes) because handlers are
/// long-lived closures, not per-event state — but they still must not
/// allocate, so the figure benches can assert a zero fallback count.
using PacketHandler = InplaceFunction<void(const Packet&), 128>;

struct StageCounters {
  std::uint64_t accepted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

/// Index-stable, free-listed parking lot for packets a stage has in
/// flight.  put() hands back a dense slot index the stage captures in
/// its simulator callback; take() must be called exactly once per put()
/// (the simulator guarantees the callback fires unless the whole stage
/// is torn down with it).
class FlightPool {
 public:
  std::uint32_t put(const Packet& p) {
    if (free_.empty()) {
      slots_.push_back(p);
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    slots_[idx] = p;
    return idx;
  }
  Packet take(std::uint32_t idx) {
    free_.push_back(idx);
    return std::move(slots_[idx]);
  }
  [[nodiscard]] std::int64_t in_flight() const {
    return static_cast<std::int64_t>(slots_.size() - free_.size());
  }

 private:
  std::vector<Packet> slots_;
  std::vector<std::uint32_t> free_;
};

/// Flat power-of-two ring buffer of packets: the DropTail queue of
/// RateLink/TraceLink.  Replaces std::deque, whose per-block heap
/// traffic dominated the steady-state allocation profile of a long
/// flow; the ring allocates only when it grows past its high-water
/// mark, so a warmed-up link queues and drains allocation-free.
class PacketRing {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Packet& front() { return buf_[head_]; }
  [[nodiscard]] const Packet& front() const { return buf_[head_]; }

  void push_back(const Packet& p) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = p;
    ++size_;
  }
  Packet pop_front() {
    Packet p = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return p;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
    std::vector<Packet> next(cap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<Packet> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Base for pipeline stages.  Not copyable: stages are wired by reference.
class PacketStage {
 public:
  PacketStage() = default;
  PacketStage(const PacketStage&) = delete;
  PacketStage& operator=(const PacketStage&) = delete;
  virtual ~PacketStage() = default;

  virtual void accept(const Packet& p) = 0;
  void set_next(PacketHandler next) { next_ = std::move(next); }

  /// Bind the stage to its simulator for observability: drops, enqueues
  /// and deliveries then reach the hub installed with
  /// Simulator::set_obs (each note_* is a branch on null when no hub
  /// is).  OneWayPipe attaches every stage it owns; stages constructed
  /// directly in tests/benches may leave this unset.
  void attach_obs(const Simulator& sim) { obs_sim_ = &sim; }

  [[nodiscard]] const StageCounters& counters() const { return counters_; }
  /// Packets accepted but neither delivered nor dropped yet (queued or
  /// in flight inside the stage).  Every stage maintains the invariant
  ///   accepted == delivered + dropped + queued_packets()
  /// which the fault-injection soak harness asserts after every run.
  [[nodiscard]] virtual std::int64_t queued_packets() const { return 0; }

 protected:
  void forward(const Packet& p) {
    ++counters_.delivered;
    if (next_) next_(p);
  }
  /// The installed hub, or null (stage unbound, or no hub on the sim).
  [[nodiscard]] obs::ObsHub* obs() const {
    return obs_sim_ != nullptr ? obs_sim_->obs() : nullptr;
  }
  /// Canonical drop accounting: every drop site in a stage calls this
  /// exactly once with its cause, right where ++counters_.dropped
  /// happens — the obs per-cause counters stay reconcilable with the
  /// stage counters.
  /// The hub-present bodies are outlined ([[gnu::cold]], in links.cc) so
  /// each note_* costs the per-packet hot paths a single predicted
  /// branch — the registry/ring writes never inline into accept().
  void note_drop(obs::DropCause cause, const Packet& p) {
    if (obs() != nullptr) [[unlikely]] note_drop_slow(cause, p);
  }
  void note_enqueue(const Packet& p, std::int64_t depth) {
    if (obs() != nullptr) [[unlikely]] note_enqueue_slow(p, depth);
  }
  void note_deliver(const Packet& p) {
    if (obs() != nullptr) [[unlikely]] note_deliver_slow(p);
  }
  StageCounters counters_;

 private:
  [[gnu::noinline, gnu::cold]] void note_drop_slow(obs::DropCause cause, const Packet& p);
  [[gnu::noinline, gnu::cold]] void note_enqueue_slow(const Packet& p, std::int64_t depth);
  [[gnu::noinline, gnu::cold]] void note_deliver_slow(const Packet& p);

  PacketHandler next_;
  const Simulator* obs_sim_ = nullptr;
};

/// Constant one-way propagation delay.
///
/// The pipeline exit.  Parked packets are simulator *sink items* (their
/// FlightPool index), so every packet due at one tick arrives back as a
/// single span of indices, which the box forwards one packet at a time
/// in accept order.
class DelayBox final : public PacketStage {
 public:
  DelayBox(Simulator& sim, Duration delay);
  void accept(const Packet& p) override;

  /// Change the propagation delay for packets accepted from now on
  /// (fault injection: delay spikes).  In-flight packets keep their
  /// original delivery time, so reordering across the change is possible
  /// only when the delay shrinks — exactly as on a real route change.
  void set_delay(Duration delay) { delay_ = delay; }
  [[nodiscard]] Duration delay() const { return delay_; }
  [[nodiscard]] std::int64_t queued_packets() const override { return pool_.in_flight(); }

 private:
  void deliver_batch(SinkSpan idxs);

  Simulator& sim_;
  Duration delay_;
  FlightPool pool_;
  SinkId sink_;
};

/// Independent (Bernoulli) packet loss.
class LossBox final : public PacketStage {
 public:
  LossBox(Rng rng, double loss_rate) : rng_(std::move(rng)), loss_rate_(loss_rate) {}
  void accept(const Packet& p) override;

 private:
  Rng rng_;
  double loss_rate_;
};

/// Gilbert-Elliott burst loss: a two-state (Good/Bad) Markov chain
/// stepped per packet, with an independent loss probability in each
/// state.  Models the correlated loss episodes of wireless links (deep
/// fades, handovers) that Bernoulli loss cannot produce; the fault
/// injector flips it on mid-run for burst-loss faults.
struct GeLossSpec {
  double loss_good = 0.0;     // loss probability in the Good state
  double loss_bad = 0.5;      // loss probability in the Bad state
  double p_good_to_bad = 0.01;  // per-packet Good -> Bad transition
  double p_bad_to_good = 0.1;   // per-packet Bad -> Good transition
  std::uint64_t seed = 1;
};

class GilbertElliottLossBox final : public PacketStage {
 public:
  /// Constructed disabled (pure pass-through) until a spec is set.
  explicit GilbertElliottLossBox(std::uint64_t seed) : rng_(seed) {}
  void accept(const Packet& p) override;

  /// Enable (or live-reconfigure) burst loss.  The chain restarts in the
  /// Good state; the RNG stream continues (no reseed mid-run).
  void set_spec(const GeLossSpec& spec);
  /// Back to pass-through; state resets to Good.
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] bool in_bad_state() const { return bad_; }

 private:
  Rng rng_;
  GeLossSpec spec_;
  bool enabled_ = false;
  bool bad_ = false;
};

/// Fixed-rate serializing link with a DropTail queue of `queue_packets`.
///
/// Exactly one serialization is in progress at a time: the head of the
/// queue owns a single armed drain event at its finish time; the next
/// packet begins when it completes.  This is what makes set_rate able to
/// re-plan an in-progress transmission (a rate_crash fault must slow the
/// bytes already queued, not just future arrivals).
class RateLink final : public PacketStage {
 public:
  RateLink(Simulator& sim, double mbps, int queue_packets);
  void accept(const Packet& p) override;

  [[nodiscard]] std::int64_t queued_packets() const override {
    return static_cast<std::int64_t>(queue_.size());
  }

  /// Change the link rate, effective immediately for the whole queue
  /// (fault injection: rate crashes/recoveries).  Bytes of the head
  /// packet already serialized at the old rate stay sent; its remainder
  /// — and every queued packet behind it — continues at the new rate.
  /// Throws on non-positive rates.
  void set_rate(double mbps);
  [[nodiscard]] double rate_mbps() const { return mbps_; }

 private:
  void begin_head();
  void finish_head();

  Simulator& sim_;
  double mbps_;
  int queue_limit_;
  PacketRing queue_;
  bool sending_ = false;            // head serialization in progress
  SinkId sink_;                     // drain completions (at most one live)
  EventId drain_event_ = 0;
  TimePoint head_start_{0};         // when the current head('s remainder) started
  std::int64_t head_wire_bytes_ = 0;  // bytes still to serialize of the head
};

/// Random extra delay on a fraction of packets — produces genuine packet
/// reordering (wireless links reorder under link-layer retransmission).
/// Used to stress the transport's reordering tolerance.
class ReorderBox final : public PacketStage {
 public:
  ReorderBox(Simulator& sim, Rng rng, double reorder_probability, Duration extra_delay)
      : sim_(sim),
        rng_(std::move(rng)),
        probability_(reorder_probability),
        extra_delay_(extra_delay) {}
  void accept(const Packet& p) override;

 private:
  Simulator& sim_;
  Rng rng_;
  double probability_;
  Duration extra_delay_;
  FlightPool pool_;
};

/// Mahimahi-semantics trace-driven link: a DropTail queue drained by MTU
/// delivery opportunities from a looping DeliveryTrace.  Each opportunity
/// carries up to kMtu bytes of whole packets; unused capacity is wasted
/// (as on a real shared channel slot).  Opportunity lookup goes through
/// a monotone DeliveryTrace::Cursor — amortized O(1) per drain instead
/// of a binary search over the whole trace.
class TraceLink final : public PacketStage {
 public:
  TraceLink(Simulator& sim, TracePtr trace, int queue_packets);
  void accept(const Packet& p) override;

  [[nodiscard]] std::int64_t queued_packets() const override {
    return static_cast<std::int64_t>(queue_.size());
  }

 private:
  void arm_drain();
  void drain();

  Simulator& sim_;
  TracePtr trace_;
  DeliveryTrace::Cursor cursor_;
  int queue_limit_;
  PacketRing queue_;
  bool drain_armed_ = false;
  SinkId sink_;                // delivery opportunities (at most one live)
  TimePoint next_allowed_{0};  // first instant a new opportunity may fire
};

}  // namespace mn
