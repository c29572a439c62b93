// perfbench FaultLab layer: faultlab::Explorer over a fixed scenario set at
// a fixed budget and rng_seed, measured inside pbft-failover's traced run.
// Every explorer run builds a group, provisions its channels at default
// size, connects and tears down, so this is the crypto/reptor/rubin stack
// used setup-heavy rather than steady-state. Schedules per host second are
// the correctness budget the ROADMAP names.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench.hpp"
#include "faultlab/corpus.hpp"
#include "faultlab/explore.hpp"
#include "pbft.hpp"

namespace perfbench {

using namespace rubin;

namespace {

constexpr const char* kScenarios[] = {
    "f1-crash-primary", "f1-partition-primary", "f1-lossy-fabric",
    "f1-byz-equivocating-primary", "f1-onesided-stale-rkey",
};
/// Explorer runs per scenario per second of --seconds.
constexpr std::uint32_t kBudgetPerSecond = 2;

faultlab::Scenario scenario(const char* name) {
  auto s = faultlab::find_scenario(name);
  if (!s) {
    std::fprintf(stderr, "perfbench: scenario %s not in the corpus\n", name);
    std::exit(2);
  }
  return std::move(*s);
}

}  // namespace

ExploreOutcome explore_scenarios(std::uint32_t budget) {
  ExploreOutcome out;
  const double t0 = host_now();
  for (const char* name : kScenarios) {
    faultlab::ExploreOptions opts;  // the Explorer's default rng_seed
    opts.budget = budget;
    faultlab::Explorer ex(opts);
    const faultlab::ExploreReport rep = ex.explore(scenario(name));
    out.runs += rep.runs;
    out.unique += rep.unique_schedules;
    out.violations += rep.violations;
    out.minimization_runs += rep.minimization_runs;
  }
  out.wall_s = host_now() - t0;
  return out;
}

void explore_layers(Result& r, int seconds) {
  const std::uint32_t budget = kBudgetPerSecond * static_cast<std::uint32_t>(seconds);
  const HostTimer timer;
  const ExploreOutcome ex = explore_scenarios(budget);
  const HostSpan host = timer.stop();
  std::printf("explorer: %zu scenarios, budget %u each, fixed rng_seed: %llu runs, %llu "
              "unique schedules, %llu violations, %llu minimization runs, %.3f s host\n",
              std::size(kScenarios), budget, static_cast<unsigned long long>(ex.runs),
              static_cast<unsigned long long>(ex.unique),
              static_cast<unsigned long long>(ex.violations),
              static_cast<unsigned long long>(ex.minimization_runs), ex.wall_s);
  r.check(ex.violations == 0, "explorer: zero Checker violations");

  // Explorer::run_schedule timed from outside on each scenario's baseline
  // schedule (the groups of the process are already warm).
  faultlab::Explorer timed;
  std::vector<double> ms, flt;
  for (int rep = 0; rep < 4; ++rep) {
    for (const char* name : kScenarios) {
      const faultlab::Scenario s = scenario(name);
      const HostTimer t;
      (void)timed.run_schedule(s, {});
      const HostSpan h = t.stop();
      ms.push_back(h.wall_s * 1e3);
      flt.push_back(static_cast<double>(h.minflt));
    }
  }
  auto& L = r.per_layer;
  L["unique_schedules"] = static_cast<double>(ex.unique);
  L["explore.schedules_per_s"] = static_cast<double>(ex.runs) / ex.wall_s;
  L["explore.host_ms_per_run"] = median(ms);
  L["explore.minflt_per_run"] = median(flt);
  L["explore.sys_frac"] = host.sys_s / std::max(1e-9, host.user_s + host.sys_s);
  L["explore.dedup_frac"] =
      ex.runs ? static_cast<double>(ex.unique) / static_cast<double>(ex.runs) : 0;
  L["explore.minimization_runs"] = static_cast<double>(ex.minimization_runs);
}

}  // namespace perfbench
