#include "net/trace_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/packet.hpp"

namespace mn {
namespace {

// Mean microseconds between MTU-sized opportunities at `mbps`.
double mean_gap_usec(double mbps) {
  if (mbps <= 0.0) throw std::invalid_argument("trace rate must be positive");
  return static_cast<double>(Packet::kMtu) * 8.0 / mbps;
}

// Room for a random trace whose rate never exceeds `fastest_mbps`: the
// mean opportunity count over `period` plus four standard deviations of
// a Poisson count, so the vector is sized once instead of doubling.
std::size_t expected_opportunities(Duration period, double fastest_mbps) {
  if (fastest_mbps <= 0.0 || period.usec() <= 0) return 0;
  const double n = static_cast<double>(period.usec()) / mean_gap_usec(fastest_mbps);
  return static_cast<std::size_t>(n + 4.0 * std::sqrt(n)) + 16;
}

}  // namespace

DeliveryTrace constant_rate_trace(double mbps, Duration period) {
  const double gap = mean_gap_usec(mbps);
  std::vector<Duration> opportunities;
  opportunities.reserve(static_cast<std::size_t>(period.usec() / gap) + 1);
  for (double t = gap; t <= static_cast<double>(period.usec()); t += gap) {
    opportunities.push_back(usec(static_cast<std::int64_t>(t)));
  }
  if (opportunities.empty()) opportunities.push_back(period);
  return DeliveryTrace{std::move(opportunities), period};
}

DeliveryTrace poisson_trace(double mbps, Duration period, Rng& rng) {
  const double mean_gap = mean_gap_usec(mbps);
  std::vector<Duration> opportunities;
  opportunities.reserve(expected_opportunities(period, mbps));
  double t = 0.0;
  while (true) {
    t += rng.exponential(mean_gap);
    if (t > static_cast<double>(period.usec())) break;
    opportunities.push_back(usec(static_cast<std::int64_t>(t)));
  }
  if (opportunities.empty()) opportunities.push_back(period);
  return DeliveryTrace{std::move(opportunities), period};
}

DeliveryTrace two_state_trace(const TwoStateSpec& spec, Duration period, Rng& rng) {
  std::vector<Duration> opportunities;
  opportunities.reserve(
      expected_opportunities(period, std::max(spec.good_mbps, spec.bad_mbps)));
  bool good = true;
  double t = 0.0;
  double state_end = rng.exponential(static_cast<double>(spec.mean_dwell.usec()));
  while (t <= static_cast<double>(period.usec())) {
    const double rate = good ? spec.good_mbps : spec.bad_mbps;
    const double gap = rng.exponential(mean_gap_usec(rate));
    t += gap;
    if (t > static_cast<double>(period.usec())) break;
    while (t > state_end) {
      good = !good;
      state_end += rng.exponential(static_cast<double>(spec.mean_dwell.usec()));
    }
    opportunities.push_back(usec(static_cast<std::int64_t>(t)));
  }
  if (opportunities.empty()) opportunities.push_back(period);
  // t only grows, so the opportunities are already sorted.
  return DeliveryTrace{std::move(opportunities), period};
}

}  // namespace mn
