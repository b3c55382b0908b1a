// A set of disjoint half-open integer intervals [start, end).
//
// MPTCP uses these on both ends of a connection: the receiver
// deduplicates data-level byte ranges that may arrive twice (subflow
// retransmissions, reinjection after path failure), and the sender
// tracks which data-level ranges have been acknowledged across subflows.
//
// The intervals live in one sorted vector; an add binary-searches the
// run it overlaps or touches and merges it in place.  The vector keeps
// its capacity, so a warmed-up set adds without touching the allocator.
#pragma once

#include <cstdint>
#include <vector>

namespace mn {

class IntervalSet {
 public:
  /// Insert [start, end); overlapping/adjacent intervals are merged.
  /// Returns the number of bytes newly covered.
  std::int64_t add(std::int64_t start, std::int64_t end);

  /// Total bytes covered.
  [[nodiscard]] std::int64_t total() const { return total_; }
  /// Length of the contiguous run starting at `from` (0 if uncovered).
  /// `from == 0` is the cumulative-ack / in-order-prefix pattern and by
  /// far the hottest caller (once per pump on the MPTCP data path), so
  /// it reads a cached prefix length instead of searching.
  [[nodiscard]] std::int64_t contiguous_from(std::int64_t from) const {
    if (from == 0) return prefix_;
    return contiguous_from_slow(from);
  }
  /// Whether [start, end) is fully covered.
  [[nodiscard]] bool covers(std::int64_t start, std::int64_t end) const;
  [[nodiscard]] bool empty() const { return intervals_.empty(); }
  [[nodiscard]] std::size_t interval_count() const { return intervals_.size(); }

 private:
  struct Interval {
    std::int64_t start;
    std::int64_t end;
  };

  [[nodiscard]] std::int64_t contiguous_from_slow(std::int64_t from) const;
  /// The interval with the greatest start <= `at` (the only one that
  /// can contain `at`), or null.
  [[nodiscard]] const Interval* floor_interval(std::int64_t at) const;

  std::vector<Interval> intervals_;  // sorted by start; disjoint, never adjacent
  std::int64_t total_ = 0;
  std::int64_t prefix_ = 0;  // == contiguous_from(0), maintained by add()
};

}  // namespace mn
