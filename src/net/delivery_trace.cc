#include "net/delivery_trace.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "net/packet.hpp"
#include "util/csv.hpp"

namespace mn {

DeliveryTrace::DeliveryTrace(std::vector<Duration> opportunities, Duration period)
    : opportunities_(std::move(opportunities)), period_(period) {
  if (opportunities_.empty()) {
    throw std::invalid_argument("DeliveryTrace: no opportunities");
  }
  if (period_.usec() <= 0) {
    throw std::invalid_argument("DeliveryTrace: non-positive period");
  }
  if (!std::is_sorted(opportunities_.begin(), opportunities_.end())) {
    throw std::invalid_argument("DeliveryTrace: opportunities not sorted");
  }
  if (opportunities_.front().usec() < 0 || opportunities_.back() > period_) {
    throw std::invalid_argument("DeliveryTrace: opportunity outside period");
  }
}

TimePoint DeliveryTrace::next_opportunity(TimePoint t) const {
  const std::int64_t p = period_.usec();
  const std::int64_t tu = std::max<std::int64_t>(t.usec(), 0);
  const std::int64_t cycle = tu / p;
  const Duration offset{tu - cycle * p};
  auto it = std::lower_bound(opportunities_.begin(), opportunities_.end(), offset);
  if (it != opportunities_.end()) {
    return TimePoint{cycle * p + it->usec()};
  }
  // Wrap to the first opportunity of the next cycle.
  return TimePoint{(cycle + 1) * p + opportunities_.front().usec()};
}

TimePoint DeliveryTrace::Cursor::next(TimePoint t) {
  assert(trace_ != nullptr && "Cursor::next() on a default-constructed cursor");
  const std::vector<Duration>& opp = trace_->opportunities_;
  const std::int64_t p = trace_->period_.usec();
  const std::int64_t tu = std::max<std::int64_t>(t.usec(), 0);
  // Candidate opportunity currently under the cursor, as absolute time.
  auto candidate = [&] { return cycle_ * p + opp[idx_].usec(); };
  if (tu < last_t_ || candidate() + p < tu) {
    // Time wrap, or a forward jump of more than a period: re-seek.
    cycle_ = tu / p;
    const Duration offset{tu - cycle_ * p};
    idx_ = static_cast<std::size_t>(
        std::lower_bound(opp.begin(), opp.end(), offset) - opp.begin());
    if (idx_ == opp.size()) {
      idx_ = 0;
      ++cycle_;
    }
  }
  last_t_ = tu;
  // The looped sequence is non-decreasing (the last opportunity of a
  // cycle is <= the first of the next), so walking forward to the first
  // candidate >= t lands on the same value lower_bound would.
  while (candidate() < tu) {
    if (++idx_ == opp.size()) {
      idx_ = 0;
      ++cycle_;
    }
  }
  return TimePoint{candidate()};
}

double DeliveryTrace::average_rate_mbps() const {
  const double bits =
      static_cast<double>(opportunities_.size()) * static_cast<double>(Packet::kMtu) * 8.0;
  return bits / static_cast<double>(period_.usec());
}

std::string DeliveryTrace::to_mahimahi() const {
  std::ostringstream os;
  for (const Duration d : opportunities_) {
    os << (d.usec() / 1000) << '\n';
  }
  return os.str();
}

DeliveryTrace DeliveryTrace::from_mahimahi(const std::string& text) {
  std::istringstream in(text);
  std::vector<Duration> opportunities;
  std::string line;
  std::int64_t last_ms = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::int64_t ms = 0;
    try {
      // The whole line is the token, so the error quotes the line.  msec()
      // scales to microseconds and a cursor looks up to two periods past
      // the current time, so ms may span a quarter of the int64 range.
      ms = parse_int(line, 0, std::numeric_limits<std::int64_t>::max() / 4000);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(std::string("mahimahi trace: ") + e.what());
    }
    if (ms < last_ms) throw std::runtime_error("mahimahi trace: timestamps not sorted");
    last_ms = ms;
    opportunities.push_back(msec(ms));
  }
  if (opportunities.empty()) throw std::runtime_error("mahimahi trace: empty");
  const Duration period = std::max(msec(1), opportunities.back());
  return DeliveryTrace{std::move(opportunities), period};
}

void DeliveryTrace::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("DeliveryTrace: cannot write " + path);
  out << to_mahimahi();
  if (!out) throw std::runtime_error("DeliveryTrace: write failed: " + path);
}

DeliveryTrace DeliveryTrace::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("DeliveryTrace: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_mahimahi(buf.str());
}

}  // namespace mn
