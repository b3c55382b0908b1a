// Flow-level experiment drivers shared by tests and benches: run one
// transfer under any TransportConfig over an MpNetworkSetup, and sweep
// flow sizes (the x-axis of Figures 7, 8, 11-14).
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "faults/fault_plan.hpp"
#include "mptcp/testbed.hpp"
#include "tcp/flow.hpp"

namespace mn {

/// One result type for single-path and MPTCP flows; a single-path flow
/// leaves the multipath fields at their defaults (no subflow timelines).
using TransportFlowResult = MptcpFlowResult;

/// Run `bytes` under `config` over `net`.  A fresh Simulator should be
/// used per call for reproducibility (pass one in; it is advanced).
/// `faults`, when set, is armed against the flow's path(s) at start (not
/// owned; must outlive the call).
[[nodiscard]] TransportFlowResult run_transport_flow(Simulator& sim,
                                                     const MpNetworkSetup& net,
                                                     const TransportConfig& config,
                                                     std::int64_t bytes, Direction dir,
                                                     const FlowOptions& options = {},
                                                     const FaultPlan* faults = nullptr);

/// One point of a flow-size sweep.
struct SweepPoint {
  std::int64_t flow_bytes = 0;
  double throughput_mbps = 0.0;
  Duration completion_time{0};
};

/// Download throughput as a function of flow size for one config
/// (Figure 7 axes).  `parallelism` is the worker count for the per-size
/// runs: 0/1 = serial, negative = follow MN_THREADS.  Each point builds
/// a private Simulator from the shared-immutable setup, so results are
/// bit-identical at any value.
[[nodiscard]] std::vector<SweepPoint> sweep_flow_sizes(const MpNetworkSetup& net,
                                                       const TransportConfig& config,
                                                       const std::vector<std::int64_t>& sizes,
                                                       int parallelism = -1);

}  // namespace mn
