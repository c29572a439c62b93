// perfbench workload pop-burst: the bypass workload. A PopLab population
// (burst.pop: ~10k open-loop clients, SRQ on, bursty arrivals, 64 B-1 KiB
// payloads) drives verbs SRQs, the MuxAcceptor, shared CQs, the frame pool
// and the sim kernel at high event rates, with no crypto and no reptor on
// the path. A crypto or protocol change must leave it unchanged.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/fabric.hpp"
#include "poplab/population.hpp"
#include "poplab/scenario.hpp"
#include "rubin/config.hpp"
#include "sim/simulator.hpp"
#include "sampler.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace rubin;

namespace {

/// Rate multipliers applied to every rate in the file's schedule. 1.0 is
/// the reference, about half the knee: the single ack server's p99 leaves
/// the limit between 2x and 3x.
constexpr double kLadder[] = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
/// p99 limit for the ladder, a few x the unloaded p99 (~16 us).
constexpr double kSloP99Us = 60;
/// Shed (drops + timeouts) allowed at a rung that meets the SLO.
constexpr double kShedBound = 0.001;
/// Reference phase: this many configurations (seeds), each run kRepeats
/// times, interleaved, for the host rate (bench.hpp host_rate).
constexpr std::uint32_t kConfigs = 3;
constexpr std::uint32_t kRepeats = 5;
/// Schedule length per second of --seconds (virtual ms): ladder rungs and
/// each reference run.
constexpr double kLadderMsPerSecond = 10;
constexpr double kRefMsPerSecond = 10;
/// Step and SliceClock slice of the measured phase: ~64 acks at the
/// reference rate, about a millisecond of host time.
constexpr sim::Time kSlice = sim::microseconds(250);

struct PopRun {
  poplab::PopulationReport report;
  double p50_us = 0, p99_us = 0;
  std::uint64_t samples = 0;
  double offered_rps = 0;
  std::uint64_t events = 0;
  double setup_s = 0;
  long setup_minflt = 0;
  HostSpan phase;
  std::vector<double> slice_cpu_s;  // SliceClock slices of the phase
  ModuleSamples cpu_samples;        // sampled runs only
  bool accounting_ok = true;
  bool backlog_grows = false;
};

poplab::PopulationSpec load_spec(const Options& o) {
  return poplab::PopulationSpec::load(o.data_dir + "/burst.pop");
}

poplab::PopulationSpec scaled(poplab::PopulationSpec spec, std::uint64_t seed,
                              double factor, double duration_ms) {
  spec.seed = seed;
  spec.duration = sim::milliseconds(duration_ms);
  for (auto& c : spec.cohorts) {
    c.arrival.base_rps *= factor;
    c.arrival.peak_rps *= factor;
  }
  return spec;
}

/// Mean offered rate of a spec over its duration (time-averaged schedule).
double offered_rps(const poplab::PopulationSpec& spec) {
  double total = 0;
  const sim::Time step = sim::microseconds(10);
  for (const auto& c : spec.cohorts) {
    for (sim::Time t = c.start; t < spec.duration; t += step) {
      total += c.arrival.rate_at(t - c.start) * sim::to_s(step);
    }
  }
  return total / sim::to_s(spec.duration);
}

/// One population run; `sample` runs the CPU sampler over the measured
/// phase.
PopRun run_population(const poplab::PopulationSpec& spec, bool sample = false) {
  PopRun out;
  out.offered_rps = offered_rps(spec);
  poplab::PopulationConfig cfg;
  cfg.use_srq = true;

  const double setup_t0 = host_now();
  const Usage u0 = usage_now();
  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(),
                     poplab::Population::host_count(spec, cfg)};
  poplab::Population pop{fabric, spec, cfg};
  sim.spawn(pop.run());
  // Connection storm: the schedule clock starts once every client is up.
  const std::uint32_t clients = spec.total_clients();
  while (pop.established() < clients && sim.now() < sim::seconds(10)) {
    sim.run_until(sim.now() + sim::microseconds(100));
  }
  out.setup_s = host_now() - setup_t0;
  out.setup_minflt = usage_now().minflt - u0.minflt;

  const std::uint64_t ev0 = sim.events_processed();
  std::optional<Sampler> sampler;
  if (sample) sampler.emplace();
  HostTimer phase;
  sim::Time timeout = 0;
  for (const auto& c : spec.cohorts) timeout = std::max(timeout, c.timeout);
  const sim::Time schedule_end = sim.now() + spec.duration + timeout;
  SliceClock slices(sim.now(), kSlice);
  while (sim.now() < schedule_end) {
    sim.run_until(sim.now() + kSlice);
    slices.observe(sim.now());
  }
  sim.run();
  out.phase = phase.stop();
  out.slice_cpu_s = slices.finish();
  if (sampler) out.cpu_samples = sampler->stop();
  out.events = sim.events_processed() - ev0;
  out.report = pop.report();
  // serve() stays suspended on the mux; reap it while `pop` is alive.
  sim.terminate_processes();

  // The file holds one cohort, so its percentiles are the population's.
  const auto& lat = pop.cohort(0).latency;
  out.samples = lat.count();
  out.p50_us = lat.count() ? lat.percentile(0.5) : 0;
  out.p99_us = lat.count() ? lat.percentile(kTailQ) : 0;
  for (std::size_t i = 0; i < pop.cohort_count(); ++i) {
    const auto& c = pop.cohort(i);
    out.accounting_ok = out.accounting_ok &&
                        c.arrivals == c.completions + c.timeouts + c.drops;
  }
  out.backlog_grows = out.report.timeouts > 0;
  return out;
}

double shed_frac(const PopRun& x) {
  return x.report.arrivals
             ? static_cast<double>(x.report.drops + x.report.timeouts) /
                   static_cast<double>(x.report.arrivals)
             : 1.0;
}

void print_run(const char* label, double factor, const PopRun& x) {
  std::printf("%-10s %5.2fx %9.0f %9.0f %8.2f %8.2f %8llu %6llu %6llu %8.0f\n", label,
              factor, x.offered_rps, x.report.throughput_rps, x.p50_us, x.p99_us,
              static_cast<unsigned long long>(x.report.completions),
              static_cast<unsigned long long>(x.report.timeouts),
              static_cast<unsigned long long>(x.report.drops),
              static_cast<double>(x.report.completions) /
                  std::max(1e-9, x.phase.user_s + x.phase.sys_s));
}

}  // namespace

Result run_pop_burst(const Options& o) {
  Result r;
  const poplab::PopulationSpec file = load_spec(o);
  r.check(file.cohorts.size() == 1, "burst.pop declares exactly one cohort");
  if (!r.correct) return r;
  const double secs = o.seconds;

  // Untimed warm-up: first-touch of the SRQ/CQ/pool slabs.
  const long first_minflt =
      run_population(scaled(file, mix_seed(o.seed, 0x3A3), 1.0, 2)).setup_minflt;

  std::printf("pop-burst: %u clients, SRQ on, burst schedule; SLO p99 <= %.0f us, "
              "shed <= %.3f\n", file.total_clients(), kSloP99Us, kShedBound);
  std::printf("%-10s %6s %9s %9s %8s %8s %8s %6s %6s %8s\n", "phase", "factor",
              "offered", "achieved", "p50_us", "p99_us", "done", "tmo", "drops", "host/cpu-s");
  std::vector<double> setups;
  double max_rate = 0;
  for (const double f : kLadder) {
    const PopRun x = run_population(scaled(
        file, mix_seed(o.seed, static_cast<std::uint64_t>(f * 100)), f,
        kLadderMsPerSecond * secs));
    setups.push_back(x.setup_s);
    print_run("ladder", f, x);
    r.check(x.accounting_ok, "ladder: arrivals == completions + timeouts + drops");
    const bool slo = tail_ok(x.samples) && x.p99_us <= kSloP99Us &&
                     shed_frac(x) <= kShedBound && !x.backlog_grows;
    if (slo) max_rate = std::max(max_rate, x.report.throughput_rps);
  }
  r.check(max_rate > 0, "some ladder rate meets the SLO");

  // Every configuration runs kRepeats times, the configurations
  // interleaved so that one configuration's repeats lie apart in time.
  std::vector<std::vector<PopRun>> all(kConfigs);
  for (std::uint32_t k = 0; k < kRepeats; ++k) {
    for (std::uint32_t i = 0; i < kConfigs; ++i) {
      PopRun x = run_population(scaled(file, mix_seed(o.seed, 100 + i), 1.0,
                                       kRefMsPerSecond * secs));
      setups.push_back(x.setup_s);
      print_run("reference", 1.0, x);
      r.check(x.accounting_ok, "reference: arrivals == completions + timeouts + drops");
      all[i].push_back(std::move(x));
    }
  }
  std::vector<PopRun> ref;  // first repeat of each configuration
  std::vector<double> host_rates;  // one per configuration
  std::uint64_t attempted = 0, completed = 0;
  for (std::vector<PopRun>& runs : all) {
    PopRun& a = runs.front();
    std::vector<std::vector<double>> slices;
    bool same = true;
    for (const PopRun& x : runs) {
      same = same && x.p50_us == a.p50_us && x.p99_us == a.p99_us && x.events == a.events &&
             x.slice_cpu_s.size() == a.slice_cpu_s.size();
      slices.push_back(x.slice_cpu_s);
    }
    r.check(same, "reference: repeats of a configuration agree in virtual time");
    if (!same) continue;
    host_rates.push_back(host_rate(a.report.completions, slices));
    attempted += a.report.arrivals;
    completed += a.report.completions;
    ref.push_back(std::move(a));
  }
  // Percentiles pool the configurations through their medians: PopLab
  // keeps its samples inside the cohort recorder.
  std::vector<double> p50s, p99s;
  std::uint64_t samples = 0;
  for (const PopRun& x : ref) {
    p50s.push_back(x.p50_us);
    p99s.push_back(x.p99_us);
    samples += x.samples;
    r.check(tail_ok(x.samples), "reference: >= 10 samples beyond p99");
  }
  r.end_to_end["req_p50_us"] = median(p50s);
  r.end_to_end["req_p99_us"] = median(p99s);
  r.end_to_end["host_ops_per_s"] = median(host_rates);

  r.end_to_end["setup_s"] = median(setups);
  r.end_to_end["peak_rss_mb"] = peak_rss_mb();
  r.attempted = attempted;
  r.failed = attempted - completed;
  std::printf("reference sample: %llu acked requests over %u configurations; host rate "
              "over %u repeats each:",
              static_cast<unsigned long long>(samples), kConfigs, kRepeats);
  for (const double h : host_rates) std::printf(" %.0f/s", h);
  std::printf("\n");

  if (o.trace && !ref.empty()) {
    // PopLab has no transport seam to decorate. The traced runs repeat the
    // first reference configuration in kRepeats pairs, unsampled and under
    // the CPU sampler, back to back so that both sides of the sampler's
    // cost see the same host. They must reproduce its virtual results
    // exactly; crypto use on this path is what the sampler finds in crypto
    // functions.
    const PopRun& plain = ref.front();
    const poplab::PopulationSpec spec =
        scaled(file, mix_seed(o.seed, 100), 1.0, kRefMsPerSecond * secs);
    ModuleSamples samples;
    std::vector<std::vector<double>> plain_slices, sampled_slices;
    bool same = true;
    for (std::uint32_t k = 0; k < kRepeats; ++k) {
      for (const bool sample : {false, true}) {
        const PopRun t = run_population(spec, sample);
        same = same && t.p50_us == plain.p50_us && t.p99_us == plain.p99_us &&
               t.events == plain.events &&
               t.report.completions == plain.report.completions &&
               t.slice_cpu_s.size() == plain.slice_cpu_s.size();
        for (const auto& [module, n] : t.cpu_samples) samples[module] += n;
        (sample ? sampled_slices : plain_slices).push_back(t.slice_cpu_s);
      }
    }
    r.check(same, "traced runs' virtual results equal the untraced run");
    const double done = static_cast<double>(plain.report.completions);
    const double cpu = phase_cpu(plain_slices);
    const double traced_cpu = phase_cpu(sampled_slices);
    auto& L = r.per_layer;
    L["max_rate_under_slo_rps"] = max_rate;
    L["fail_frac"] = shed_frac(plain);
    L["sim.events_per_req"] = static_cast<double>(plain.events) / done;
    L["sim.host_ns_per_event"] = sim_kernel_ns_per_event();
    L["crypto.host_share"] = sample_share(samples, "crypto");
    L["crypto.host_us_per_req"] = L["crypto.host_share"] * traced_cpu * 1e6 / done;
    const poplab::CohortSpec& cohort = file.cohorts.front();
    nio::ChannelConfig ccfg;
    ccfg.buffer_size = poplab::PopulationConfig{}.buffer_size;
    const double ns_per_frame = channel_ns_per_frame(
        static_cast<std::size_t>((cohort.payload_lo + cohort.payload_hi) / 2), ccfg);
    L["rubin.host_ns_per_frame"] = ns_per_frame;
    L["poplab.shed_frac"] = shed_frac(plain);
    L["poplab.recv_bytes_per_conn"] = plain.report.server_recv_bytes_per_conn;
    L["setup.minflt"] = static_cast<double>(first_minflt);
    L["host.sys_frac"] =
        plain.phase.sys_s / std::max(1e-9, plain.phase.user_s + plain.phase.sys_s);
    // Each acked request is two frames through the datapath (request and
    // ack); the echo pair's per-frame cost covers rubin, verbs and the sim
    // events of that path.
    const double attributed = 2.0 * done * ns_per_frame * 1e-9;
    L["host.unattributed_share"] = std::max(0.0, 1.0 - attributed / cpu);
    // The sampler is the only tracing here, so this is its own cost.
    L["trace.overhead_share"] = traced_cpu / cpu - 1.0;
    std::printf("cpu samples by module (sampled runs): %s\n", format_shares(samples).c_str());
    std::printf("traced runs: phase cpu %.3f s sampled vs %.3f s unsampled (paired)\n",
                traced_cpu, cpu);
  }
  return r;
}

}  // namespace perfbench
