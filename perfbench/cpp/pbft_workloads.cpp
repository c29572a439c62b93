// perfbench workloads pbft-open and pbft-failover.
//
// pbft-open: the steady-state serving path. A ladder of fixed Poisson
// rates up to the group's knee gives max_rate_under_slo_rps; a reference
// rate at about half the knee gives the end-to-end latency and host
// throughput. pbft-failover: the same group at the reference rate with
// the primary crashed at a fixed virtual instant, so view change, NEW-VIEW
// re-proposal, client retry broadcast and the watchdogs are on the path;
// its traced run also measures the FaultLab Explorer (explore.cpp).
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "pbft.hpp"
#include "reptor/transport_rubin.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// Fixed ladder (requests/s, virtual). The n=4 group saturates near 176k
/// on the default ReplicaConfig; the top rungs straddle that knee.
constexpr double kLadder[] = {30000, 60000, 90000, 120000, 150000, 170000, 190000};
/// Reference rate, about half the knee.
constexpr double kRefRate = 90000;
/// Latency limit on p99 for the ladder: ~2.7x the unloaded p99 (~185 us).
constexpr double kSloP99Us = 500;
/// A rung whose queue wait p99 exceeds this share of the limit was held
/// back by the client pool, not the group, and cannot set the max rate.
constexpr double kPoolBoundShare = 0.05;
/// pbft-open's measured phase: this many configurations (seeds), each run
/// kRepeats times, interleaved, for the host rate (bench.hpp host_rate).
/// pbft-failover runs one configuration kRepeats times.
constexpr std::uint32_t kConfigs = 2;
constexpr std::uint32_t kRepeats = 4;
/// Requests per second of --seconds, per rung and per reference run.
constexpr std::uint32_t kLadderPerSecond = 200;
constexpr std::uint32_t kRefPerSecond = 700;
/// pbft-failover: crash instant after t0, and requests per run of its one
/// configuration. Requests due during the outage or the backlog drain
/// after it are slow; with 60k per run at --seconds 25 they are well under
/// half of the sample, so the median lies outside them. At 30k they were
/// about half, and the median jumped between ~170 us and ~1.7 ms by seed.
constexpr double kCrashAtMs = 20;
constexpr std::uint32_t kFailoverPerSecond = 2400;

PbftConfig base_config(std::uint64_t seed, double rate, std::uint32_t arrivals) {
  PbftConfig c;
  c.seed = seed;
  c.rate_rps = rate;
  c.arrivals = arrivals;
  return c;
}

/// Untimed: the first group of a process faults in its zero-filled
/// channel slabs; later groups reuse the allocator's pages. Returns the
/// minor faults of that first set-up.
long warm_up(std::uint64_t seed) {
  const PbftRun x = run_pbft(base_config(mix_seed(seed, 0x3A3), kRefRate, 500));
  std::printf("warm-up group: set-up %.3f s, %ld minor faults (later groups reuse "
              "the pages)\n", x.setup_s, x.setup_minflt);
  return x.setup_minflt;
}

/// Completions per CPU second of one run's whole phase (the log's column).
double cpu_rate(const PbftRun& x) {
  return static_cast<double>(x.completed) / std::max(1e-9, x.phase.user_s + x.phase.sys_s);
}

void print_run(const char* label, double rate, const PbftRun& x, std::uint32_t pool) {
  std::printf("%-10s %8.0f %9.0f %9.0f %9.1f %9.1f %9.1f %5u %6.3f %7llu/%-7llu %8.0f %6.3f\n",
              label, rate, x.offered_rps, x.achieved_rps, p50(x.lat_us), p99(x.lat_us),
              p99(x.queue_us), pool, x.pool_util,
              static_cast<unsigned long long>(x.completed),
              static_cast<unsigned long long>(x.attempted),
              cpu_rate(x), x.phase.sys_s);
}

void print_run_header() {
  std::printf("%-10s %8s %9s %9s %9s %9s %9s %5s %6s %15s %8s %6s\n", "phase", "rate",
              "offered", "achieved", "p50_us", "p99_us", "queue99", "pool", "util",
              "done/attempted", "host/cpu-s", "sys_s");
}

void check_group(Result& r, const PbftRun& x, const char* label, bool open) {
  const std::string p = std::string(label) + ": ";
  r.check(x.digests_equal, p + "correct replicas agree on state digest and last_executed");
  if (open) {
    r.check(x.auth_clean, p + "auth_failures == 0");
    r.check(x.executed_matches, p + "executed == completed");
  } else {
    r.check(x.new_view, p + "a new view is entered");
  }
}

/// The measured phase: every configuration run kRepeats times, the
/// configurations interleaved so that one configuration's repeats lie
/// apart in time. The virtual sample pools each configuration once.
struct Reps {
  std::vector<PbftRun> runs;  // first repeat of each configuration
  std::vector<double> lat_us, queue_us;
  std::vector<double> host_rates;  // one per configuration
  std::uint64_t attempted = 0, completed = 0;
};

Reps run_repeated(Result& r, const std::vector<PbftConfig>& configs, const char* label,
                  bool open, std::vector<double>& setups) {
  std::vector<std::vector<PbftRun>> all(configs.size());
  for (std::uint32_t k = 0; k < kRepeats; ++k) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      PbftRun x = run_pbft(configs[i]);
      setups.push_back(x.setup_s);
      print_run(label, configs[i].rate_rps, x, configs[i].pool);
      check_group(r, x, label, open);
      all[i].push_back(std::move(x));
    }
  }
  Reps reps;
  for (std::vector<PbftRun>& runs : all) {
    PbftRun& a = runs.front();
    std::vector<std::vector<double>> slices;
    bool same = true;
    for (const PbftRun& x : runs) {
      same = same && x.lat_us == a.lat_us && x.events == a.events &&
             x.slice_cpu_s.size() == a.slice_cpu_s.size();
      slices.push_back(x.slice_cpu_s);
    }
    r.check(same, std::string(label) + ": repeats of a configuration agree in virtual time");
    if (!same) continue;
    reps.host_rates.push_back(host_rate(a.completed, slices));
    reps.lat_us.insert(reps.lat_us.end(), a.lat_us.begin(), a.lat_us.end());
    reps.queue_us.insert(reps.queue_us.end(), a.queue_us.begin(), a.queue_us.end());
    reps.attempted += a.attempted;
    reps.completed += a.completed;
    reps.runs.push_back(std::move(a));
  }
  return reps;
}

/// End-to-end metrics shared by both PBFT workloads.
void report_e2e(Result& r, const Reps& reps, std::vector<double> setups) {
  r.end_to_end["req_p50_us"] = p50(reps.lat_us);
  r.end_to_end["req_p99_us"] = p99(reps.lat_us);
  r.end_to_end["host_ops_per_s"] = median(reps.host_rates);

  r.end_to_end["setup_s"] = median(std::move(setups));
  r.end_to_end["peak_rss_mb"] = peak_rss_mb();
  r.attempted = reps.attempted;
  r.failed = reps.attempted - reps.completed;
  std::printf("reference sample: %zu completed requests (p99 has %zu beyond it); "
              "host rate over %zu configurations x %u repeats:",
              reps.lat_us.size(),
              static_cast<std::size_t>(static_cast<double>(reps.lat_us.size()) * (1 - kTailQ)),
              reps.host_rates.size(), kRepeats);
  for (const double h : reps.host_rates) std::printf(" %.0f/s", h);
  std::printf("\n");
}

/// Traced runs of `first`'s configuration: one under the CPU sampler for
/// the module shares, then kRepeats pairs of an untraced run and a run with
/// the decorator and the observers, back to back so that both sides of the
/// tracing overhead see the same host. Host shares and the overhead use
/// the pairs' phase_cpu. The frames of the first tapped run are replayed.
void traced_layers(Result& r, PbftConfig c, const PbftRun& first, long first_minflt) {
  c.sample = true;
  const PbftRun plain = run_pbft(c);
  c.sample = false;
  PbftRun t;
  std::vector<std::vector<double>> untraced_slices, tapped_slices;
  bool same = plain.lat_us == first.lat_us;
  for (std::uint32_t k = 0; k < kRepeats; ++k) {
    c.trace = false;
    PbftRun u = run_pbft(c);
    c.trace = true;
    PbftRun x = run_pbft(c);
    same = same && u.events == plain.events && x.lat_us == plain.lat_us &&
           x.queue_us == plain.queue_us && x.events == plain.events &&
           u.slice_cpu_s.size() == first.slice_cpu_s.size() &&
           x.slice_cpu_s.size() == first.slice_cpu_s.size();
    untraced_slices.push_back(std::move(u.slice_cpu_s));
    tapped_slices.push_back(x.slice_cpu_s);
    if (k == 0) t = std::move(x);
  }
  r.check(same, "traced runs' virtual samples equal the untraced run bit for bit");
  if (!same) return;
  const double done = static_cast<double>(t.completed);
  const double cpu = phase_cpu(untraced_slices);
  auto& L = r.per_layer;
  L["fail_frac"] = static_cast<double>(plain.attempted - plain.completed) /
                   static_cast<double>(plain.attempted);
  L["pool.utilisation"] = plain.pool_util;
  L["sim.events_per_req"] = static_cast<double>(plain.events) / done;
  L["sim.host_ns_per_event"] = sim_kernel_ns_per_event();
  L["crypto.mac_bytes_per_req"] = t.mac_bytes / done;
  L["crypto.host_us_per_req"] = t.replay_crypto_s * 1e6 / done;
  L["crypto.host_share"] = sample_share(plain.samples, "crypto");
  L["reptor.codec.host_us_per_req"] = t.replay_codec_s * 1e6 / done;
  L["reptor.msgs_per_req"] = static_cast<double>(t.msgs_handled) / done;
  L["reptor.bytes_per_req"] = static_cast<double>(t.bytes_sent) / done;
  L["reptor.reqs_per_batch"] = t.batches ? done / static_cast<double>(t.batches) : 0;
  L["reptor.retries_per_req"] = static_cast<double>(t.client_retries) / done;
  L["stage.queue_us"] = p99(t.queue_us);
  L["stage.order_us"] = p50(t.order_us);
  L["stage.agree_us"] = p50(t.agree_us);
  L["stage.reply_us"] = p50(t.reply_us);
  L["rubin.frames_per_flush"] =
      t.flush_batches ? static_cast<double>(t.frames_sent) / static_cast<double>(t.flush_batches) : 0;
  const double ns_per_frame = channel_ns_per_frame(
      static_cast<std::size_t>(t.mean_frame_bytes), rubin::reptor::RubinTransport::default_config());
  L["rubin.host_ns_per_frame"] = ns_per_frame;
  L["setup.minflt"] = static_cast<double>(first_minflt);
  L["host.sys_frac"] = plain.phase.sys_s / std::max(1e-9, plain.phase.user_s + plain.phase.sys_s);
  // The echo pair's per-frame cost covers rubin, verbs and the sim events
  // of the datapath; the remainder is protocol logic and everything else.
  const double attributed = t.replay_crypto_s + t.replay_codec_s +
                            static_cast<double>(t.frames_sent) * ns_per_frame * 1e-9;
  L["host.unattributed_share"] = std::max(0.0, 1.0 - attributed / cpu);
  const double traced_cpu = phase_cpu(tapped_slices);
  L["trace.overhead_share"] = traced_cpu / cpu - 1.0;
  std::printf("cpu samples by module (sampled run): %s\n", format_shares(plain.samples).c_str());
  std::printf("crypto: sampled %.1f%% of host CPU (%.2f us/req), replayed %.1f%% (%.2f us/req)\n",
              100.0 * L["crypto.host_share"], L["crypto.host_share"] * cpu * 1e6 / done,
              100.0 * t.replay_crypto_s / cpu, L["crypto.host_us_per_req"]);
  std::printf("traced runs: phase cpu %.3f s tapped vs %.3f s untraced (paired); largest "
              "frame %zu B; frame samples %zu B (%.2f%% of peak RSS)\n",
              traced_cpu, cpu, t.largest_frame, t.sample_bytes,
              100.0 * static_cast<double>(t.sample_bytes) / (peak_rss_mb() * 1048576.0));
}

}  // namespace

Result run_pbft_open(const Options& o) {
  Result r;
  const long first_minflt = warm_up(o.seed);
  std::vector<double> setups;

  const PbftConfig defaults;
  std::printf("pbft-open: n=4 f=1 RUBIN, CounterApp, add:1 padded to Pareto 64 B-8 KiB; "
              "SLO p99 <= %.0f us; pool %u; lean channels: client %u x %zu B, "
              "replica accept %u x %zu B\n",
              kSloP99Us, defaults.pool, lean_client_config(defaults.payload_hi).buffer_count,
              lean_client_config(defaults.payload_hi).buffer_size,
              lean_accept_config().buffer_count, lean_accept_config().buffer_size);
  print_run_header();
  double max_rate = 0;
  for (const double rate : kLadder) {
    PbftConfig c = base_config(mix_seed(o.seed, static_cast<std::uint64_t>(rate)), rate,
                               kLadderPerSecond * static_cast<std::uint32_t>(o.seconds));
    const PbftRun x = run_pbft(c);
    setups.push_back(x.setup_s);
    print_run("ladder", rate, x, c.pool);
    check_group(r, x, "ladder", true);
    const bool slo = tail_ok(x.lat_us.size()) && p99(x.lat_us) <= kSloP99Us &&
                     x.completed == x.attempted && !x.backlog_grows;
    const bool pool_bound = p99(x.queue_us) > kPoolBoundShare * kSloP99Us;
    std::printf("           slo %s%s\n", slo ? "met" : "missed",
                slo && pool_bound ? ", but pool-bound: not counted" : "");
    if (slo && !pool_bound) max_rate = std::max(max_rate, x.achieved_rps);
  }
  r.per_layer["max_rate_under_slo_rps"] = max_rate;
  r.check(max_rate > 0, "some ladder rate meets the SLO with the pool not binding");

  std::vector<PbftConfig> configs;
  for (std::uint32_t k = 0; k < kConfigs; ++k) {
    configs.push_back(base_config(mix_seed(o.seed, 100 + k), kRefRate,
                                  kRefPerSecond * static_cast<std::uint32_t>(o.seconds)));
  }
  const Reps ref = run_repeated(r, configs, "reference", true, setups);
  r.check(ref.completed == ref.attempted, "reference: every arrival completed (fault-free)");
  r.check(tail_ok(ref.lat_us.size()), "reference: >= 10 samples beyond p99");
  report_e2e(r, ref, setups);
  if (o.trace && !ref.runs.empty()) {
    traced_layers(r, configs.front(), ref.runs.front(), first_minflt);
  }
  return r;
}

Result run_pbft_failover(const Options& o) {
  Result r;
  const long first_minflt = warm_up(o.seed);
  std::vector<double> setups;
  std::printf("pbft-failover: reference rate %.0f/s, replica 0 (primary) crashes at "
              "t0+%.0f ms\n", kRefRate, kCrashAtMs);
  print_run_header();
  std::vector<PbftConfig> configs;
  PbftConfig c = base_config(mix_seed(o.seed, 200), kRefRate,
                             kFailoverPerSecond * static_cast<std::uint32_t>(o.seconds));
  c.crash_primary = true;
  c.crash_at = rubin::sim::milliseconds(kCrashAtMs);
  configs.push_back(c);
  const Reps reps = run_repeated(r, configs, "failover", false, setups);
  std::vector<double> unavailable, view_change;
  for (const PbftRun& x : reps.runs) {
    std::printf("failover: unavailable %.3f ms, all survivors in new view after %.3f ms, "
                "client retries %llu\n",
                x.unavailable_ms, x.view_change_ms,
                static_cast<unsigned long long>(x.client_retries));
    unavailable.push_back(x.unavailable_ms);
    view_change.push_back(x.view_change_ms);
  }
  r.check(tail_ok(reps.lat_us.size()), "failover: >= 10 samples beyond p99");
  report_e2e(r, reps, setups);
  r.per_layer["unavailable_ms"] = median(unavailable);
  if (o.trace && !reps.runs.empty()) {
    traced_layers(r, configs.front(), reps.runs.front(), first_minflt);
    r.per_layer["reptor.view_change_ms"] = median(view_change);
    explore_layers(r, o.seconds);
  }
  return r;
}

}  // namespace perfbench
