#include "util/interval_set.hpp"

#include <algorithm>
#include <iterator>

namespace mn {

std::int64_t IntervalSet::add(std::int64_t start, std::int64_t end) {
  if (end <= start) return 0;
  std::int64_t gained = end - start;

  // Merge the run of intervals that overlap or touch [start, end): from
  // the first whose end reaches start to the last whose start does not
  // pass end.  An empty run means [start, end) goes in between.
  const auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), start,
      [](const Interval& iv, std::int64_t s) { return iv.end < s; });
  const auto last = std::upper_bound(
      first, intervals_.end(), end,
      [](std::int64_t e, const Interval& iv) { return e < iv.start; });
  if (first == last) {
    intervals_.insert(first, {start, end});
  } else {
    for (auto it = first; it != last; ++it) {
      gained -= std::min(it->end, end) - std::max(it->start, start);
    }
    first->start = std::min(first->start, start);
    first->end = std::max(std::prev(last)->end, end);
    intervals_.erase(std::next(first), last);
  }
  total_ += gained;
  const Interval& head = intervals_.front();
  prefix_ = (head.start <= 0 && head.end > 0) ? head.end : 0;
  return gained;
}

const IntervalSet::Interval* IntervalSet::floor_interval(std::int64_t at) const {
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), at,
      [](std::int64_t a, const Interval& iv) { return a < iv.start; });
  return it == intervals_.begin() ? nullptr : &*std::prev(it);
}

std::int64_t IntervalSet::contiguous_from_slow(std::int64_t from) const {
  const Interval* iv = floor_interval(from);
  if (iv == nullptr || iv->end <= from) return 0;
  return iv->end - from;
}

bool IntervalSet::covers(std::int64_t start, std::int64_t end) const {
  if (end <= start) return true;
  const Interval* iv = floor_interval(start);
  return iv != nullptr && iv->end >= end;
}

}  // namespace mn
