// perfbench PBFT group runner: an n=4 (f=1) RUBIN group with CounterApp,
// driven open-loop by Poisson arrivals through a fixed client pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "reptor/costs.hpp"
#include "reptor/replica.hpp"
#include "rubin/config.hpp"
#include "sampler.hpp"
#include "sim/time.hpp"

namespace perfbench {

struct PbftConfig {
  std::uint64_t seed = 1;
  double rate_rps = 10000;
  std::uint32_t arrivals = 5000;
  /// Client pool. One Client allows one outstanding invoke(), so a pool
  /// of k at latency L completes at most k / L requests per second; the
  /// runner reports utilisation and queue wait so a rung where the pool
  /// binds cannot set the max rate.
  std::uint32_t pool = 32;
  /// Op sizes: "add:1" padded to a bounded-Pareto size in [64 B, hi].
  double payload_hi = 8192;
  double payload_alpha = 1.2;
  rubin::reptor::ProtocolCosts costs;
  rubin::sim::Time view_change_timeout =
      rubin::reptor::ReplicaConfig{}.view_change_timeout;
  /// Client-facing channels use lean_client_config / lean_accept_config;
  /// false = the transport default on every connection.
  bool lean_clients = true;
  /// pbft-failover: replica 0 crashes at t0 + crash_at.
  bool crash_primary = false;
  rubin::sim::Time crash_at = 0;
  /// Traced run: TapTransport on every node plus stage observers.
  bool trace = false;
  /// Runs the CPU sampler (sampler.hpp) over the measured phase.
  bool sample = false;
};

struct PbftRun {
  // --- virtual clock (V) ---
  std::vector<double> lat_us;    // due -> f+1-th matching reply, completed
  std::vector<double> queue_us;  // due -> handed to a pool client
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  double offered_rps = 0;   // arrivals / span of due times
  double achieved_rps = 0;  // completions / (last completion - t0)
  double pool_util = 0;     // busy client time / (pool x span)
  bool backlog_grows = false;
  double unavailable_ms = 0;  // failover: crash -> first completion due after it
  double view_change_ms = 0;  // failover: crash -> every survivor in view >= 1
  // --- counts ---
  std::uint64_t events = 0;  // simulator events in the measured phase
  std::uint64_t client_retries = 0;
  std::uint64_t msgs_handled = 0;   // all replicas
  std::uint64_t batches = 0;        // committed at replica 1
  std::uint64_t frames_sent = 0;    // all transports
  std::uint64_t bytes_sent = 0;
  std::uint64_t flush_batches = 0;
  // --- stage spans (traced run), V, per completed request ---
  std::vector<double> order_us, agree_us, reply_us;
  // --- host clock (H) ---
  double setup_s = 0;
  long setup_minflt = 0;
  HostSpan phase;
  std::vector<double> slice_cpu_s;  // SliceClock slices of the phase
  ModuleSamples samples;            // c.sample only
  double replay_crypto_s = 0, replay_codec_s = 0, mac_bytes = 0;
  double mean_frame_bytes = 0;
  std::size_t largest_frame = 0;
  std::size_t sample_bytes = 0;
  // --- output checks ---
  bool digests_equal = false;
  bool auth_clean = false;
  bool executed_matches = false;
  bool new_view = false;
};

/// Client ccfg: buffers sized to the largest frame a client sends (a
/// REQUEST carrying a payload_hi op).
rubin::nio::ChannelConfig lean_client_config(double payload_hi);
/// Replica accept_cfg: fewer buffers than the mesh, same buffer size.
rubin::nio::ChannelConfig lean_accept_config();

PbftRun run_pbft(const PbftConfig& c);

/// Median latency of the reference phase etc. are taken from these.
double p50(const std::vector<double>& v);
double p99(const std::vector<double>& v);

/// FaultLab Explorer sweep over the benchmark's scenario set.
struct ExploreOutcome {
  std::uint64_t runs = 0;
  std::uint64_t unique = 0;
  std::uint64_t violations = 0;
  std::uint64_t minimization_runs = 0;
  double wall_s = 0;
};
ExploreOutcome explore_scenarios(std::uint32_t budget);
/// Runs the sweep at the budget --seconds implies and records the
/// explore.* per-layer metrics and the zero-violation check.
void explore_layers(Result& r, int seconds);

}  // namespace perfbench
