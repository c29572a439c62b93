// perfbench — the repository benchmark binary (one workload per process).
//
//   perfbench --workload <pbft-open|pbft-failover|pop-burst>
//             --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
//   perfbench --selftest [--data-dir <dir>]
//
// Prints a human-readable table (every metric with unit and clock), the
// output checks, and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status is non-zero when an output check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

template <std::size_t N>
void print_metrics(const char* title, const MetricDef (&defs)[N],
                   const std::map<std::string, double>& values) {
  std::printf("\n%s\n", title);
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) {
      std::printf("  %-30s %18s %-6s [%s]\n", d.name, "n/a (0)", d.unit, d.clock);
    } else {
      std::printf("  %-30s %18.6f %-6s [%s]\n", d.name, it->second, d.unit, d.clock);
    }
  }
}

template <std::size_t N>
void print_json(const Result& r, const MetricDef (&defs)[N],
                const std::map<std::string, double>& values) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (!first) s += ", ";
    first = false;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    s += std::string("\"") + d.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + d.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--data-dir <dir>]\n"
               "       perfbench --selftest [--data-dir <dir>]\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atoi(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--data-dir" && has_value) {
      o.data_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (selftest) return run_selftest(o) == 0 ? 0 : 1;
  if (o.seconds < 1 || o.seconds > 600) return usage();

  Result r;
  if (o.workload == "pbft-open") {
    r = run_pbft_open(o);
  } else if (o.workload == "pbft-failover") {
    r = run_pbft_failover(o);
  } else if (o.workload == "pop-burst") {
    r = run_pop_burst(o);
  } else {
    return usage();
  }
  if (r.attempted == 0) r.check(false, "at least one operation attempted");
  for (const MetricDef& d : kEndToEnd) {
    const auto it = r.end_to_end.find(d.name);
    r.check(it != r.end_to_end.end() && std::isfinite(it->second) && it->second > 0,
            std::string("end-to-end metric measured and > 0: ") + d.name);
  }

  std::printf("\nworkload %s seed %llu seconds %d trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  print_metrics("end-to-end metrics", kEndToEnd, r.end_to_end);
  if (o.trace) print_metrics("per-layer metrics (traced run)", kPerLayer, r.per_layer);
  std::printf("\nfail accounting: attempted %llu failed %llu (fail_frac %.6f)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0);
  for (const std::string& f : r.check_failures) std::printf("FAILED check: %s\n", f.c_str());
  if (o.trace) {
    print_json(r, kPerLayer, r.per_layer);
  } else {
    print_json(r, kEndToEnd, r.end_to_end);
  }
  return r.correct ? 0 : 1;
}
