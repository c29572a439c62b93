// The Fig. 3 echo micro-benchmark kit: one client-server echo per
// transport variant, returning mean round-trip latency and throughput.
// Used by bench/bench_fig3_micro, the ablation benches, and the cost-
// model calibration test.
//
// Variants (paper Fig. 3):
//   * TCP            — tcpsim sockets + Poller readiness (the Java-ish
//                      blocking echo loop).
//   * RDMA Send/Recv — raw verbs two-sided with completion *events*
//                      (kernel-assisted notification, like DiSNI's
//                      blocking endpoints).
//   * RDMA Read/Write— one-sided writes with memory polling; no remote
//                      CPU involvement, no completion events.
//   * RDMA Channel   — the RUBIN RdmaChannel with the §IV optimizations
//                      (buffer pools, selective signaling, inlining,
//                      zero-copy send, receive-side copy).
#pragma once

#include <cstddef>

#include "net/cost_model.hpp"
#include "sim/time.hpp"
#include "rubin/config.hpp"

namespace rubin::workloads {

struct EchoPoint {
  double latency_us = 0.0;   // mean round trip
  double krps = 0.0;         // closed-loop requests/second (thousands)
  double p99_us = 0.0;
};

struct EchoParams {
  std::size_t payload = 1024;
  int messages = 1000;
  net::CostModel cost = net::CostModel::roce_10g();
  /// Read/Write mode polls remote-writable memory from the application
  /// loop; this is the loop's iteration granularity (a Java polling loop,
  /// not a tight asm spin).
  sim::Time rw_poll_interval = sim::microseconds(3.0);
};

EchoPoint run_tcp_echo(const EchoParams& p);
EchoPoint run_sendrecv_echo(const EchoParams& p);
EchoPoint run_readwrite_echo(const EchoParams& p);
/// `cfg` exposes the §IV knobs for the ablation benches.
EchoPoint run_channel_echo(const EchoParams& p, nio::ChannelConfig cfg);
/// Windowed variant: the client keeps `window` messages outstanding, so
/// consumer-side CPU (event handling, copies) is on the critical path —
/// where selective signaling actually pays off. Ping-pong hides those
/// costs in idle waits.
EchoPoint run_channel_echo_windowed(const EchoParams& p,
                                    nio::ChannelConfig cfg,
                                    std::uint32_t window);
/// Paper-default channel configuration for the given payload size.
nio::ChannelConfig default_channel_config(std::size_t payload);

/// Per-frame transport selection echo (DESIGN.md §11). The client holds
/// *both* a RUBIN RdmaChannel (two-sided: inline / send-recv lanes) and a
/// OneSidedChannel mailbox (one-sided write lane) to the same server, and
/// routes every message over the TransportSelector's pick for the live
/// (payload, send-slot, ring-credit) state. `policy` kFixed pins the
/// harness to one primitive — the fixed series the adaptive line is
/// compared against in Fig. 3/4 — and kAdaptive traces their envelope.
/// kReadDrain picks (the sender-starved escape hatch) back off for one
/// poll interval and re-pick; a fixed kReadDrain policy is rejected (the
/// echo harness has no receiver-driven pull lane).
EchoPoint run_adaptive_echo(const EchoParams& p, nio::TransportPolicy policy);

}  // namespace rubin::workloads
