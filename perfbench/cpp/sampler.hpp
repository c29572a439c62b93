// perfbench CPU sampler: where a traced run's host time goes, by module.
//
// A POSIX CPU-time timer (CLOCK_PROCESS_CPUTIME_ID) raises SIGPROF every
// millisecond of this process's CPU time, and the handler stores the
// interrupted instruction address. The kernel checks CPU timers at its
// scheduler tick, so with a tick longer than that there is one sample
// per tick.
// On stop() every address is resolved against the executable's own ELF
// symbol table (.symtab of /proc/self/exe, present in the RelWithDebInfo
// build) and the function's qualified name gives its module. As in
// gprof's flat profile, code inlined into a caller counts as the
// caller's. Addresses outside every sized function of the executable
// (libc, libstdc++, the vDSO, PLT stubs) count as "shared-libs".
//
// It observes host time only: the simulator never sees it, so a sampled
// run's virtual results are those of an unsampled one.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Samples per module: "crypto", "sim", "net", "verbs", "rubin", "reptor",
/// "poplab", "faultlab", "workloads", "common", "perfbench", "std",
/// "shared-libs", "other".
using ModuleSamples = std::map<std::string, std::uint64_t>;

class Sampler {
 public:
  /// Starts sampling. At most one Sampler may exist at a time.
  Sampler();
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Stops sampling and attributes the samples taken so far.
  ModuleSamples stop();

 private:
  bool running_ = false;
};

/// Share of all samples that fall in `module`; 0 without samples.
double sample_share(const ModuleSamples& s, const std::string& module);

/// One line "module share% ..." in descending order, for the run's log.
std::string format_shares(const ModuleSamples& s);

}  // namespace perfbench
