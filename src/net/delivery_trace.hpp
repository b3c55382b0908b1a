// Mahimahi-style packet-delivery traces.
//
// A trace is a sorted list of opportunity timestamps plus a period; the
// pattern repeats forever (Mahimahi's trace-looping semantics).  Each
// opportunity can deliver up to one MTU (1500 bytes) of queued packets.
// The on-disk format matches Mahimahi: one integer per line, the
// millisecond timestamp of an opportunity; the period is the last
// timestamp (rounded up to at least 1 ms).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace mn {

class DeliveryTrace {
 public:
  /// `opportunities` must be sorted, non-negative, and within `period`.
  /// Throws std::invalid_argument otherwise (or if the trace is empty /
  /// the period non-positive: a link that never delivers is a config bug).
  DeliveryTrace(std::vector<Duration> opportunities, Duration period);

  /// First opportunity at time >= `t`.
  [[nodiscard]] TimePoint next_opportunity(TimePoint t) const;

  /// Stateful, monotone variant of next_opportunity for the drain loop.
  ///
  /// A cursor remembers its position (opportunity index + loop cycle) in
  /// the infinite looped opportunity sequence, and next(t) only ever
  /// walks forward from there — amortized O(1) per query when `t` is
  /// non-decreasing (which simulator time is), against O(log n) binary
  /// search per drain for the stateless call.  Invariant: the cursor's
  /// candidate opportunity never precedes any previously returned one.
  /// If `t` moves backwards (a time wrap — e.g. the owning link is
  /// re-used across simulator lifetimes) or jumps forward by more than
  /// one period, the cursor re-seeks with one binary search.
  /// next(t) returns exactly what next_opportunity(t) returns, always.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const DeliveryTrace& trace) : trace_(&trace) {}
    [[nodiscard]] TimePoint next(TimePoint t);

   private:
    const DeliveryTrace* trace_ = nullptr;
    std::size_t idx_ = 0;     // position within one period's opportunities
    std::int64_t cycle_ = 0;  // which repetition of the trace
    std::int64_t last_t_ = std::numeric_limits<std::int64_t>::min();
  };

  [[nodiscard]] Duration period() const { return period_; }
  [[nodiscard]] std::size_t opportunities_per_period() const { return opportunities_.size(); }
  /// Long-run average rate implied by the trace, in megabits/second,
  /// assuming every opportunity carries a full MTU.
  [[nodiscard]] double average_rate_mbps() const;

  /// Serialize to Mahimahi's one-millisecond-integer-per-line format.
  [[nodiscard]] std::string to_mahimahi() const;
  /// Parse the Mahimahi format; throws std::runtime_error on bad input.
  [[nodiscard]] static DeliveryTrace from_mahimahi(const std::string& text);
  /// File round-trip in the same format (interoperable with Mahimahi's
  /// mm-link trace files).  Throw std::runtime_error on I/O failure.
  void save(const std::string& path) const;
  [[nodiscard]] static DeliveryTrace load(const std::string& path);

 private:
  std::vector<Duration> opportunities_;  // sorted offsets within one period
  Duration period_;
};

using TracePtr = std::shared_ptr<const DeliveryTrace>;

}  // namespace mn
