#include "core/experiment.hpp"

#include "faults/fault_injector.hpp"
#include "util/parallel.hpp"

namespace mn {

TransportFlowResult run_transport_flow(Simulator& sim, const MpNetworkSetup& net,
                                       const TransportConfig& config, std::int64_t bytes,
                                       Direction dir, const FlowOptions& options,
                                       const FaultPlan* faults) {
  // Plan events addressed to a network the flow does not use are skipped
  // by the injector.
  if (config.kind == TransportKind::kSinglePath) {
    const bool wifi = config.path == PathId::kWifi;
    DuplexPath path{sim, wifi ? net.wifi_up : net.lte_up,
                    wifi ? net.wifi_down : net.lte_down};
    FaultInjector injector{sim};
    if (faults) {
      injector.set_target(config.path, &path);
      injector.arm(*faults);
    }
    TransportFlowResult out;
    static_cast<FlowResult&>(out) = run_bulk_flow(sim, path, bytes, dir, options);
    return out;
  }
  FaultInjector injector{sim};
  TransportFlowResult out =
      run_mptcp_flow(sim, net, config.mp, bytes, dir, options, [&](MptcpTestbed& bed) {
        if (!faults) return;
        for (const PathId p : {PathId::kWifi, PathId::kLte}) {
          injector.set_target(p, &bed.path(p), &bed.iface(p));
        }
        injector.arm(*faults);
      });
  // The testbed is gone once run_mptcp_flow returns; drop any event still
  // scheduled against it before this scope's own teardown.
  injector.disarm();
  return out;
}

std::vector<SweepPoint> sweep_flow_sizes(const MpNetworkSetup& net,
                                         const TransportConfig& config,
                                         const std::vector<std::int64_t>& sizes,
                                         int parallelism) {
  // Each point is a pure function of (net, config, bytes): a fresh
  // private Simulator per point, the shared setup read-only.
  return parallel_map(sizes.size(), parallelism, [&](std::size_t i) {
    Simulator sim;  // fresh world per point: identical starting conditions
    const auto r = run_transport_flow(sim, net, config, sizes[i], Direction::kDownload);
    return SweepPoint{sizes[i], r.throughput_mbps, r.completion_time};
  });
}

}  // namespace mn
