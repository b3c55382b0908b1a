// Flow drivers: run one transfer and report the paper's flow-level
// metrics (completion time, average throughput since SYN, the
// client-observed byte timeline), plus the ping-RTT measurement used by
// the Cell vs WiFi app (Figure 4).  run_bulk_flow is the single-path
// driver; run_mptcp_flow (mptcp/testbed.hpp) and run_transport_flow
// (core/experiment.hpp) share its result type, its options, its
// watchdog loop and its completion rule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/path.hpp"
#include "tcp/tcp_endpoint.hpp"

namespace mn {

/// Transfer direction from the client's point of view.
enum class Direction { kUpload, kDownload };

struct FlowResult {
  bool completed = false;
  /// From the first SYN to the last data byte observed at the client
  /// (delivered for downloads, acked for uploads) — the paper's clock.
  Duration completion_time{0};
  double throughput_mbps = 0.0;
  /// First SYN -> connection established at the client.
  Duration syn_rtt{0};
  /// Client-observed cumulative byte timeline (times relative to SYN).
  std::vector<TimelinePoint> timeline;
  /// Retransmissions on both ends (summed over every MPTCP subflow).
  std::uint64_t retransmits = 0;
  /// Longest gap between progress events (bytes moving or state changes).
  Duration max_stall{0};
  /// Why the flow did not complete ("" when it did).
  std::string failure_reason;
};

/// Knobs shared by the flow drivers.
struct FlowOptions {
  Duration timeout = sec(120);
  /// Abort when no progress for this long; a blackholed path otherwise
  /// burns the whole timeout retransmitting into the void.  Unset means
  /// the timeout itself: a plain wall-clock cap, which the scripted
  /// failure experiments need to hold a flow stalled on purpose.
  std::optional<Duration> stall_limit{};
};

/// How a watched run stopped.
struct WatchdogResult {
  /// The finished-predicate held.
  bool completed = false;
  /// Longest observed gap between two progress-signature changes.  The
  /// watchdog guarantees max_stall <= stall_limit even when the event
  /// queue is sparse (60s RTO-backoff gaps on a blackholed path).
  Duration max_stall{0};
  /// Empty on success; "stall: ...", "timeout" or "idle: ..." otherwise.
  std::string reason;
};

/// Steps `sim` until `finished()` holds, `timeout` passes, or the value
/// of `signature()` has not changed for `stall_limit`.  The watchdog is
/// a *simulator* event, so the stall bound holds even when the next
/// real event is far away.  This runs once per simulator event, so the
/// two callables are template parameters, not std::function.
template <class Finished, class Signature>
WatchdogResult run_watched(Simulator& sim, Duration timeout, Duration stall_limit,
                           Finished finished, Signature signature) {
  WatchdogResult result;
  const TimePoint deadline = sim.now() + timeout;
  bool stalled = false;
  Timer watchdog{sim, [&stalled] { stalled = true; }};
  watchdog.restart(stall_limit);
  auto last_sig = signature();
  TimePoint last_progress = sim.now();
  while (!finished()) {
    if (stalled || sim.now() >= deadline) break;
    if (!sim.step()) break;
    const auto sig = signature();
    if (sig != last_sig) {
      result.max_stall = std::max(result.max_stall, sim.now() - last_progress);
      last_sig = sig;
      last_progress = sim.now();
      watchdog.restart(stall_limit);
    }
  }
  result.max_stall = std::max(result.max_stall, sim.now() - last_progress);

  if (finished()) {
    result.completed = true;
  } else if (stalled) {
    result.reason =
        "stall: no progress for " + std::to_string(stall_limit.usec() / 1000) + " ms";
  } else if (sim.now() >= deadline) {
    result.reason = "timeout";
  } else {
    result.reason = "idle: event queue drained before completion";
  }
  return result;
}

/// `timeline` with its times made relative to `start`.
[[nodiscard]] std::vector<TimelinePoint> timeline_since(
    const std::vector<TimelinePoint>& timeline, TimePoint start);

/// The one completion rule.  `clock` is the client's byte counter
/// (absolute times); the flow completed iff it reached `bytes`, whatever
/// the watchdog said.  Fills timeline, completed, completion_time,
/// throughput_mbps, max_stall and failure_reason.
void settle_flow(FlowResult& result, const std::vector<TimelinePoint>& clock,
                 TimePoint start, std::int64_t bytes, Duration timeout,
                 const WatchdogResult& watchdog);

/// Average throughput implied by a timeline at time `t` since flow start
/// (the paper's "average throughput from establishment to time t").
[[nodiscard]] double timeline_throughput_at(const std::vector<TimelinePoint>& timeline,
                                            Duration t);

/// Runs one NewReno bulk transfer of `bytes` over `path` and returns its
/// result.  The simulator is advanced as a side effect (run one flow per
/// Simulator instance, or accept serialized flows).  `client_tap`
/// observes every packet crossing the client side of the path (sent and
/// received), like NetworkInterface taps on the MPTCP testbed — the
/// energy model meters real single-path traffic through it.
[[nodiscard]] FlowResult run_bulk_flow(Simulator& sim, DuplexPath& path,
                                       std::int64_t bytes, Direction dir,
                                       const FlowOptions& options = {},
                                       const InterfaceTap& client_tap = {});

/// Sends `count` sequential ICMP-sized echo exchanges over an idle path
/// and returns the average RTT (the Cell vs WiFi app's 10-ping average).
[[nodiscard]] Duration measure_ping_rtt(Simulator& sim, DuplexPath& path, int count = 10);

}  // namespace mn
