#include "core/experiment.hpp"

#include "faults/fault_injector.hpp"
#include "util/parallel.hpp"

namespace mn {

TransportFlowResult run_transport_flow(Simulator& sim, const MpNetworkSetup& net,
                                       const TransportConfig& config, std::int64_t bytes,
                                       Direction dir, const TransportRunOptions& options) {
  TransportFlowResult out;
  if (config.kind == TransportKind::kSinglePath) {
    const bool wifi = config.path == PathId::kWifi;
    DuplexPath path{sim, wifi ? net.wifi_up : net.lte_up,
                    wifi ? net.wifi_down : net.lte_down};
    FaultInjector injector{sim};
    if (options.faults) {
      // Plan events addressed to the other network are skipped by the
      // injector (a single-path flow has only one target).
      injector.set_target(config.path, &path);
      injector.arm(*options.faults);
    }
    BulkFlowOptions flow_options;
    flow_options.timeout = options.timeout;
    flow_options.stall_limit = options.stall_limit;
    const FlowResult r = run_bulk_flow(sim, path, bytes, dir, reno_factory(), flow_options);
    out.completed = r.completed;
    out.completion_time = r.completion_time;
    out.throughput_mbps = r.throughput_mbps;
    out.timeline = r.timeline;
    out.stall_time = r.max_stall;
    out.failure_reason = r.failure_reason;
    return out;
  }
  FaultInjector injector{sim};
  FlowRunOptions flow_options;
  flow_options.timeout = options.timeout;
  flow_options.stall_limit = options.stall_limit;
  if (options.faults) {
    flow_options.on_testbed = [&injector, &options](MptcpTestbed& bed) {
      injector.set_target(PathId::kWifi, &bed.path(PathId::kWifi),
                          &bed.iface(PathId::kWifi));
      injector.set_target(PathId::kLte, &bed.path(PathId::kLte), &bed.iface(PathId::kLte));
      injector.arm(*options.faults);
    };
  }
  const MptcpFlowResult r = run_mptcp_flow(sim, net, config.mp, bytes, dir, flow_options);
  // The testbed is gone once run_mptcp_flow returns; drop any event still
  // scheduled against it before this scope's own teardown.
  injector.disarm();
  out.completed = r.completed;
  out.completion_time = r.completion_time;
  out.throughput_mbps = r.throughput_mbps;
  out.timeline = r.timeline;
  out.subflow_timelines = r.subflow_timelines;
  out.subflow_paths = r.subflow_paths;
  out.stall_time = r.max_stall;
  out.failure_reason = r.failure_reason;
  return out;
}

TransportFlowResult run_transport_flow(Simulator& sim, const MpNetworkSetup& net,
                                       const TransportConfig& config, std::int64_t bytes,
                                       Direction dir, Duration timeout) {
  TransportRunOptions options;
  options.timeout = timeout;
  // Legacy contract: wall-clock cap only (scripted failure experiments
  // hold flows stalled for tens of seconds on purpose).
  options.stall_limit = timeout;
  return run_transport_flow(sim, net, config, bytes, dir, options);
}

std::vector<SweepPoint> sweep_flow_sizes(const MpNetworkSetup& net,
                                         const TransportConfig& config,
                                         const std::vector<std::int64_t>& sizes,
                                         const SweepOptions& options) {
  // Each point is a pure function of (net, config, bytes, dir): a fresh
  // private Simulator per point, the shared setup read-only.
  return parallel_map(sizes.size(), options.parallelism, [&](std::size_t i) {
    Simulator sim;  // fresh world per point: identical starting conditions
    const auto r = run_transport_flow(sim, net, config, sizes[i], options.dir);
    return SweepPoint{sizes[i], r.throughput_mbps, r.completion_time};
  });
}

std::vector<SweepPoint> sweep_flow_sizes(const MpNetworkSetup& net,
                                         const TransportConfig& config,
                                         const std::vector<std::int64_t>& sizes,
                                         Direction dir) {
  SweepOptions options;
  options.dir = dir;
  return sweep_flow_sizes(net, config, sizes, options);
}

}  // namespace mn
