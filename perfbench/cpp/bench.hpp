// perfbench: the repository benchmark. Shared host-clock, rusage, input
// generation, statistics and metric-output helpers.
//
// Two clocks, never mixed (README.md in this directory):
//   V — virtual time of the simulated group (sim::Simulator::now()).
//       Repeats exactly for a given seed and run length.
//   H — host wall time / rusage of this process.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ host clock --

inline double host_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long minflt = 0;
  long maxrss_kb = 0;
};

inline Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minflt = ru.ru_minflt;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

/// Host wall, CPU and fault counts of one phase.
struct HostSpan {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  long minflt = 0;
};

class HostTimer {
 public:
  HostTimer() : t0_(host_now()), u0_(usage_now()) {}
  HostSpan stop() const {
    const Usage u = usage_now();
    return {host_now() - t0_, u.user_s - u0_.user_s, u.sys_s - u0_.sys_s,
            u.minflt - u0_.minflt};
  }

 private:
  double t0_;
  Usage u0_;
};

/// CPU time of the calling thread, in seconds (the benchmark has one).
inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host CPU time of a measured phase, per slice of virtual time. The
/// caller steps the simulator with run_until, which adds no events, and
/// calls observe() between steps, so the slices of a configuration fall at
/// the same points of its deterministic schedule on every repeat.
class SliceClock {
 public:
  SliceClock(std::int64_t t0, std::int64_t slice_ns)
      : slice_(slice_ns), end_(t0 + slice_ns), cpu_(cpu_now()) {}

  /// Closes the slice in progress if virtual time `now` has passed its end.
  void observe(std::int64_t now) {
    if (now < end_) return;
    close();
    while (end_ <= now) end_ += slice_;
  }
  /// Closes the last, partial slice; returns CPU seconds per slice.
  std::vector<double> finish() {
    close();
    return std::move(slices_);
  }

 private:
  void close() {
    const double t = cpu_now();
    slices_.push_back(t - cpu_);
    cpu_ = t;
  }

  std::int64_t slice_;
  std::int64_t end_;
  double cpu_;
  std::vector<double> slices_;
};

// ------------------------------------------------------- input generator --

/// The benchmark's own generator (splitmix64). Inputs depend only on the
/// seed and on this code, never on the program's RNG, so a change to the
/// program cannot change what it is fed.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Exponential with the given mean (Poisson interarrival).
  double exponential(double mean) { return -mean * std::log(1.0 - uniform()); }
  /// Bounded Pareto on [lo, hi] with shape alpha.
  double pareto(double lo, double hi, double alpha) {
    const double tail = 1.0 - std::pow(lo / hi, alpha);
    return lo / std::pow(1.0 - uniform() * tail, 1.0 / alpha);
  }

 private:
  std::uint64_t s_;
};

/// Derives an independent stream seed for (run seed, purpose).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Gen g(seed ^ (salt * 0xD6E8FEB86659FD93ULL));
  return g.next();
}

// ------------------------------------------------------------ statistics --

/// Nearest-rank quantile, q in [0, 1]. 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Host CPU seconds of one configuration's measured phase, from the
/// SliceClock slices of several repeats of it. The simulation is
/// deterministic, so every repeat does the same work in each slice; the
/// cost is the sum over the slices of the least CPU time any repeat spent
/// there. Every slice counts, outages and backlog drains included, and the
/// minimum strips short bursts of interference from other tenants of the
/// host (cache, memory bandwidth), which CPU time alone does not. The
/// caller checks that the repeats have the same number of slices.
inline double phase_cpu(const std::vector<std::vector<double>>& repeats) {
  double cpu = 0;
  for (std::size_t i = 0; i < repeats.front().size(); ++i) {
    double least = repeats.front()[i];
    for (const auto& r : repeats) least = std::min(least, r[i]);
    cpu += least;
  }
  return std::max(1e-9, cpu);
}

/// The reported host throughput of one configuration: completions per
/// host CPU second of its measured phase (phase_cpu), set-up excluded.
inline double host_rate(std::uint64_t completed,
                        const std::vector<std::vector<double>>& repeats) {
  return static_cast<double>(completed) / phase_cpu(repeats);
}

/// The tail quantile reported as `*_p99_us`: 0.99, which leaves at least
/// ten samples beyond it whenever the sample holds >= 1000 values. The
/// workloads size their samples so that always holds; `tail_ok` checks it.
constexpr double kTailQ = 0.99;
inline bool tail_ok(std::size_t n) {
  return static_cast<double>(n) * (1.0 - kTailQ) >= 10.0;
}

// ---------------------------------------------------------------- output --

/// A reported metric's name, unit and clock: "V" virtual, "H" host,
/// "count" a count or ratio of counts.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock;
};

/// End-to-end metrics: every workload reports each of them (README.md
/// defines each per workload). Order is the output order.
inline constexpr MetricDef kEndToEnd[] = {
    {"req_p50_us", "us", "V"},
    {"req_p99_us", "us", "V"},
    {"host_ops_per_s", "1/s", "H"},
    {"setup_s", "s", "H"},
    {"peak_rss_mb", "MB", "H"},
};

/// Per-layer metrics of the traced run. A workload that does not run a
/// layer reports 0 for it (README.md lists which workload drives which).
inline constexpr MetricDef kPerLayer[] = {
    {"max_rate_under_slo_rps", "1/s", "V"},
    {"unavailable_ms", "ms", "V"},
    {"unique_schedules", "count", "count"},
    {"fail_frac", "frac", "count"},
    {"pool.utilisation", "frac", "V"},
    {"sim.events_per_req", "count", "count"},
    {"sim.host_ns_per_event", "ns", "H"},
    {"crypto.mac_bytes_per_req", "B", "count"},
    {"crypto.host_us_per_req", "us", "H"},
    {"crypto.host_share", "frac", "H"},
    {"reptor.codec.host_us_per_req", "us", "H"},
    {"reptor.msgs_per_req", "count", "count"},
    {"reptor.bytes_per_req", "B", "count"},
    {"reptor.reqs_per_batch", "count", "count"},
    {"reptor.retries_per_req", "count", "count"},
    {"reptor.view_change_ms", "ms", "V"},
    {"stage.queue_us", "us", "V"},
    {"stage.order_us", "us", "V"},
    {"stage.agree_us", "us", "V"},
    {"stage.reply_us", "us", "V"},
    {"rubin.frames_per_flush", "count", "count"},
    {"rubin.host_ns_per_frame", "ns", "H"},
    {"poplab.shed_frac", "frac", "count"},
    {"poplab.recv_bytes_per_conn", "B", "count"},
    {"setup.minflt", "count", "count"},
    {"host.sys_frac", "frac", "H"},
    {"explore.schedules_per_s", "1/s", "H"},
    {"explore.host_ms_per_run", "ms", "H"},
    {"explore.minflt_per_run", "count", "count"},
    {"explore.sys_frac", "frac", "H"},
    {"explore.dedup_frac", "frac", "count"},
    {"explore.minimization_runs", "count", "count"},
    {"host.unattributed_share", "frac", "H"},
    {"trace.overhead_share", "frac", "H"},
};

/// What a workload run hands back to main(): every metric it measured,
/// the fail accounting of its reference phase, and the output checks.
struct Result {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;

  /// Records an output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what) {
    std::printf("check %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory holding the benchmark's data files (burst.pop).
  std::string data_dir = ".";
};

Result run_pbft_open(const Options& o);
Result run_pbft_failover(const Options& o);
Result run_pop_burst(const Options& o);
/// Sensitivity self-test: returns the number of failed predictions.
int run_selftest(const Options& o);

/// Peak resident set of this process in MiB (ru_maxrss).
inline double peak_rss_mb() {
  return static_cast<double>(usage_now().maxrss_kb) / 1024.0;
}

}  // namespace perfbench
