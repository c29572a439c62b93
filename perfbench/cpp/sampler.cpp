#include "sampler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <cstdint>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr long kPeriodNs = 1000000;
/// Room for 2^18 samples: over four minutes of CPU.
constexpr std::size_t kCapacity = std::size_t{1} << 18;

std::uintptr_t* g_pcs = nullptr;
volatile std::sig_atomic_t g_count = 0;
timer_t g_timer{};
struct sigaction g_previous{};

void on_prof(int, siginfo_t*, void* context) {
  if (static_cast<std::size_t>(g_count) >= kCapacity) return;
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  g_pcs[g_count] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  g_pcs[g_count] = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  g_pcs[g_count] = 0;
#endif
  g_count = g_count + 1;
}

struct Function {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::string name;  // mangled
};

/// Every sized function symbol of the running executable, at its run-time
/// address (the first dl_iterate_phdr entry is the executable itself).
std::vector<Function> load_functions() {
  std::vector<Function> out;
  std::ifstream f("/proc/self/exe", std::ios::binary);
  auto read_at = [&f](std::uint64_t off, void* dst, std::size_t n) {
    f.seekg(static_cast<std::streamoff>(off));
    f.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    return static_cast<bool>(f);
  };
  Elf64_Ehdr eh{};
  if (!read_at(0, &eh, sizeof eh) || std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64) {
    return out;
  }
  std::vector<Elf64_Shdr> sections(eh.e_shnum);
  if (!read_at(eh.e_shoff, sections.data(), sections.size() * sizeof(Elf64_Shdr))) return out;
  std::uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* p) {
        *static_cast<std::uintptr_t*>(p) = info->dlpi_addr;
        return 1;
      },
      &bias);
  for (const Elf64_Shdr& s : sections) {
    if (s.sh_type != SHT_SYMTAB || s.sh_link >= sections.size()) continue;
    std::vector<Elf64_Sym> syms(s.sh_size / sizeof(Elf64_Sym));
    std::vector<char> names(sections[s.sh_link].sh_size);
    if (!read_at(s.sh_offset, syms.data(), syms.size() * sizeof(Elf64_Sym)) ||
        !read_at(sections[s.sh_link].sh_offset, names.data(), names.size())) {
      continue;
    }
    for (const Elf64_Sym& y : syms) {
      if (ELF64_ST_TYPE(y.st_info) != STT_FUNC || y.st_size == 0 ||
          y.st_shndx == SHN_UNDEF || y.st_name >= names.size()) {
        continue;
      }
      out.push_back({bias + y.st_value, bias + y.st_value + y.st_size, &names[y.st_name]});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Function& a, const Function& b) { return a.lo < b.lo; });
  return out;
}

/// The demangled qualified name without return type and parameters:
/// "rubin::sim::Task<void> rubin::reptor::Replica::run()" gives
/// "rubin::reptor::Replica::run".
std::string qualified_name(const std::string& mangled) {
  int status = 0;
  char* d = abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
  std::string name = status == 0 && d != nullptr ? d : mangled;
  std::free(d);
  const std::string_view anon = "(anonymous namespace)";
  for (auto p = name.find(anon); p != std::string::npos; p = name.find(anon, p)) {
    name.replace(p, anon.size(), "anon");
  }
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char ch = name[i];
    if (ch == '<') {
      ++depth;
    } else if (ch == '>') {
      --depth;
    } else if (depth == 0 && ch == '(') {
      return name.substr(start, i - start);
    } else if (depth == 0 && ch == ' ') {
      start = i + 1;
    }
  }
  return name.substr(start);
}

/// Module by qualified-name prefix; the first match wins. Crypto lives in
/// namespace rubin itself (src/crypto), so its classes come before the
/// catch-all for the rest of that namespace (src/common).
constexpr std::pair<std::string_view, std::string_view> kModules[] = {
    {"rubin::Sha256::", "crypto"},      {"rubin::HmacKey::", "crypto"},
    {"rubin::KeyTable::", "crypto"},    {"rubin::hmac_sha256", "crypto"},
    {"rubin::truncated_mac", "crypto"}, {"rubin::sim::", "sim"},
    {"rubin::net::", "net"},            {"rubin::verbs::", "verbs"},
    {"rubin::nio::", "rubin"},          {"rubin::reptor::", "reptor"},
    {"rubin::poplab::", "poplab"},      {"rubin::faultlab::", "faultlab"},
    {"rubin::workloads::", "workloads"}, {"rubin::", "common"},
    {"perfbench::", "perfbench"},       {"std::", "std"},
    {"__gnu_cxx::", "std"},
};

std::string module_of(const std::string& mangled) {
  const std::string q = qualified_name(mangled);
  for (const auto& [prefix, module] : kModules) {
    if (q.compare(0, prefix.size(), prefix) == 0) return std::string(module);
  }
  return "other";
}

}  // namespace

Sampler::Sampler() {
  static std::vector<std::uintptr_t> buffer(kCapacity);
  g_pcs = buffer.data();
  g_count = 0;
  struct sigaction sa{};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &g_previous) != 0) return;
  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &g_timer) != 0) {
    sigaction(SIGPROF, &g_previous, nullptr);
    return;
  }
  itimerspec its{};
  its.it_interval.tv_nsec = kPeriodNs;
  its.it_value = its.it_interval;
  timer_settime(g_timer, 0, &its, nullptr);
  running_ = true;
}

Sampler::~Sampler() { (void)stop(); }

ModuleSamples Sampler::stop() {
  ModuleSamples out;
  if (!running_) return out;
  running_ = false;
  timer_delete(g_timer);
  sigaction(SIGPROF, &g_previous, nullptr);

  std::vector<std::uintptr_t> pcs(g_pcs, g_pcs + static_cast<std::size_t>(g_count));
  std::sort(pcs.begin(), pcs.end());
  const std::vector<Function> fns = load_functions();
  std::size_t last = SIZE_MAX;  // function of the previous pc
  std::string last_module;
  for (const std::uintptr_t pc : pcs) {
    auto it = std::upper_bound(fns.begin(), fns.end(), pc,
                               [](std::uintptr_t v, const Function& f) { return v < f.lo; });
    std::size_t idx = fns.size();
    if (it != fns.begin() && pc < std::prev(it)->hi) {
      idx = static_cast<std::size_t>(std::prev(it) - fns.begin());
    }
    if (idx != last) {
      last = idx;
      last_module = idx == fns.size() ? "shared-libs" : module_of(fns[idx].name);
    }
    ++out[last_module];
  }
  return out;
}

double sample_share(const ModuleSamples& s, const std::string& module) {
  std::uint64_t total = 0;
  for (const auto& [m, n] : s) total += n;
  const auto it = s.find(module);
  return total == 0 || it == s.end() ? 0.0
                                     : static_cast<double>(it->second) / static_cast<double>(total);
}

std::string format_shares(const ModuleSamples& s) {
  std::vector<std::pair<std::uint64_t, std::string>> v;
  std::uint64_t total = 0;
  for (const auto& [m, n] : s) {
    v.emplace_back(n, m);
    total += n;
  }
  std::sort(v.rbegin(), v.rend());
  std::string out = std::to_string(total) + " samples:";
  char buf[64];
  for (const auto& [n, m] : v) {
    std::snprintf(buf, sizeof buf, " %s %.1f%%", m.c_str(),
                  100.0 * static_cast<double>(n) / static_cast<double>(total));
    out += buf;
  }
  return out;
}

}  // namespace perfbench
