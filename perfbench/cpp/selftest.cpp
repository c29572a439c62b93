// perfbench sensitivity self-test: each end-to-end metric must move in its
// predicted direction under a known change made through public config.
// A benchmark that passes this can measure what it claims to measure.
//
// Also records the lean client-facing ChannelConfig against the transport
// default at one rate (virtual latency, informational).
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "pbft.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void predict(bool ok, const std::string& what, double base, double changed) {
  std::printf("selftest %-58s base %12.3f changed %12.3f  %s\n", what.c_str(), base,
              changed, ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

PbftConfig small(std::uint64_t seed) {
  PbftConfig c;
  c.seed = seed;
  c.rate_rps = 90000;
  c.arrivals = 3000;
  return c;
}

}  // namespace

int run_selftest(const Options& o) {
  const std::uint64_t seed = mix_seed(o.seed, 0x5E1F);

  {  // ProtocolCosts::mac_fixed x2 raises req_p50_us.
    PbftConfig c = small(seed);
    const double base = p50(run_pbft(c).lat_us);
    c.costs.mac_fixed *= 2;
    const double changed = p50(run_pbft(c).lat_us);
    predict(changed > base, "mac_fixed x2 raises req_p50_us (pbft-open)", base, changed);
  }
  {  // A shorter view_change_timeout lowers unavailable_ms. The client's
     // 40 ms retry timer dominates the outage, so the watchdog's own gain
     // shows in the view-change time.
    PbftConfig c = small(seed);
    c.arrivals = 12000;
    c.crash_primary = true;
    c.crash_at = rubin::sim::milliseconds(20);
    const PbftRun base = run_pbft(c);
    c.view_change_timeout /= 2;
    const PbftRun changed = run_pbft(c);
    predict(changed.unavailable_ms < base.unavailable_ms && changed.unavailable_ms > 0,
            "view_change_timeout / 2 lowers unavailable_ms (pbft-failover)",
            base.unavailable_ms, changed.unavailable_ms);
    predict(changed.view_change_ms < base.view_change_ms && changed.view_change_ms > 0,
            "view_change_timeout / 2 lowers reptor.view_change_ms", base.view_change_ms,
            changed.view_change_ms);
  }
  {  // A higher payload ceiling lowers host_ops_per_s, computed as the
     // workloads compute it (host_rate over interleaved repeats).
    PbftConfig base_cfg = small(seed);
    base_cfg.payload_hi = 1024;
    PbftConfig big = base_cfg;
    big.payload_hi = 12 * 1024;  // a full batch still fits one 128 KiB buffer
    big.payload_alpha = 0.6;
    std::vector<std::vector<double>> base_slices, big_slices;
    std::uint64_t base_done = 0, big_done = 0;
    for (int k = 0; k < 3; ++k) {
      PbftRun x = run_pbft(base_cfg);
      base_done = x.completed;
      base_slices.push_back(std::move(x.slice_cpu_s));
      x = run_pbft(big);
      big_done = x.completed;
      big_slices.push_back(std::move(x.slice_cpu_s));
    }
    const double base = host_rate(base_done, base_slices);
    const double changed = host_rate(big_done, big_slices);
    predict(changed < base, "payload ceiling 1 KiB -> 12 KiB lowers host_ops_per_s", base,
            changed);
  }
  {  // A larger budget raises unique_schedules.
    const ExploreOutcome a = explore_scenarios(3);
    const ExploreOutcome b = explore_scenarios(9);
    predict(b.unique > a.unique, "explorer budget 3 -> 9 raises unique_schedules",
            static_cast<double>(a.unique), static_cast<double>(b.unique));
  }
  {  // Lean client-facing channels against the transport default, one rate.
    PbftConfig c = small(seed);
    c.pool = 8;
    c.rate_rps = 20000;
    const PbftRun lean = run_pbft(c);
    c.lean_clients = false;
    const PbftRun dflt = run_pbft(c);
    std::printf("lean-vs-default at %.0f/s, pool %u: p50 %.3f vs %.3f us, p99 %.3f vs "
                "%.3f us (%s)\n",
                c.rate_rps, c.pool, p50(lean.lat_us), p50(dflt.lat_us), p99(lean.lat_us),
                p99(dflt.lat_us),
                lean.lat_us == dflt.lat_us ? "identical" : "differs");
  }
  std::printf("selftest: %d failed prediction(s)\n", g_failures);
  return g_failures;
}

}  // namespace perfbench
