#include "common/audit.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"

namespace rubin::audit {

namespace {

// Single-threaded by design: the simulator owns all audited objects.
ScopedCapture* g_capture = nullptr;
std::uint64_t g_failures = 0;

// The counter registry: a fixed table of (literal name, value), so it is
// constant-initialized and trivially destructible — a site may count
// during static construction or destruction. Only Counter::bind() and
// counter_value() scan it; a hit goes straight to its slot.
struct Slot {
  std::string_view name;
  std::uint64_t value;
};
constexpr std::size_t kMaxCounters = 128;
std::array<Slot, kMaxCounters> g_slots{};
std::size_t g_used = 0;
std::uint64_t g_overflow = 0;  // absorbs counts past a captured overflow

Slot* find(std::string_view name) {
  for (std::size_t i = 0; i < g_used; ++i) {
    if (g_slots[i].name == name) return &g_slots[i];
  }
  return nullptr;
}

}  // namespace

void fail(std::string_view component, std::string_view message,
          const char* file, int line) noexcept {
  ++g_failures;
  std::string text;
  text.reserve(message.size() + 64);
  text.append("audit failed: ").append(message);
  text.append(" at ").append(file).append(":").append(std::to_string(line));
  if (g_capture != nullptr) {
    g_capture->record(std::move(text));
    return;
  }
  log_error(component, text);
  // Also hit stderr directly: the log level may be above kError in a
  // bench, and an aborting process should always say why.
  std::fprintf(stderr, "[%.*s] %s\n", static_cast<int>(component.size()),
               component.data(), text.c_str());
  std::abort();
}

std::uint64_t failure_count() noexcept { return g_failures; }

void Counter::bind() noexcept {
  if (Slot* s = find(name_)) {
    slot_ = &s->value;
  } else if (g_used == kMaxCounters) {
    fail("audit", "counter table full; cannot intern " + std::string(name_),
         __FILE__, __LINE__);
    slot_ = &g_overflow;
  } else {
    g_slots[g_used] = Slot{name_, 0};
    slot_ = &g_slots[g_used++].value;
  }
}

std::uint64_t counter_value(std::string_view name) {
  const Slot* s = find(name);
  return s == nullptr ? 0 : s->value;
}

std::vector<std::pair<std::string, std::uint64_t>> counters() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t i = 0; i < g_used; ++i) {
    if (g_slots[i].value != 0) {
      out.emplace_back(std::string(g_slots[i].name), g_slots[i].value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void reset_counters() {
  for (std::size_t i = 0; i < g_used; ++i) g_slots[i].value = 0;
}

ScopedCapture::ScopedCapture() : prev_(g_capture) { g_capture = this; }

ScopedCapture::~ScopedCapture() { g_capture = prev_; }

bool ScopedCapture::saw(std::string_view needle) const noexcept {
  for (const std::string& m : messages_) {
    if (m.find(needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace rubin::audit
