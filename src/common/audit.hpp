// Runtime invariant-audit layer.
//
// The hot paths of this codebase are exactly the places where lifecycle
// bugs hide silently: pooled buffers recycled by hand, selector keys with
// a cancel/sweep protocol, work requests reclaimed in order by selective
// signaling, and a BFT log whose certificates must never shrink. The
// audit layer states those invariants in code and checks them at runtime.
//
// The layer is always compiled in. Checks are O(1) on the hot paths, and
// each counter site interns its name once, so a hit is one increment.
//
// Primitives:
//   RUBIN_AUDIT_ASSERT(component, cond, msg)  — invariant check; on
//       failure logs `msg` (lazily evaluated) and aborts, unless a
//       ScopedCapture is installed (tests).
//   RUBIN_AUDIT_COUNT(name, delta)            — named global counter
//       (`name` must be a string literal); inspect with
//       audit::counter_value()/counters(). Sites with the same name
//       share one slot.
//   RUBIN_AUDIT_SCOPE(component, msg, pred)   — checks `pred()` when the
//       enclosing scope exits (normal or exceptional).
//
// The simulator is single-threaded; captures and counters are not
// synchronized.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rubin::audit {

/// Records a failed audit: logs it and aborts, or, when a ScopedCapture
/// is active, records it there and returns (so destructor-side audits can
/// be tested without death tests).
void fail(std::string_view component, std::string_view message,
          const char* file, int line) noexcept;

/// Total audits failed since process start (captured or fatal).
std::uint64_t failure_count() noexcept;

/// One call site's handle on the registry slot of its name. Constant-
/// initialized, so a site needs no static-init guard; it interns its name
/// on the first hit. `name` must outlive the process (RUBIN_AUDIT_COUNT
/// passes a literal).
class Counter {
 public:
  constexpr explicit Counter(std::string_view name) noexcept : name_(name) {}
  void add(std::uint64_t delta) noexcept {
    if (slot_ == nullptr) [[unlikely]] bind();
    *slot_ += delta;
  }

 private:
  [[gnu::cold]] void bind() noexcept;

  std::string_view name_;
  std::uint64_t* slot_ = nullptr;
};

/// Current value of a named counter (0 if never touched).
std::uint64_t counter_value(std::string_view name);

/// Snapshot of the non-zero counters, sorted by name.
std::vector<std::pair<std::string, std::uint64_t>> counters();

/// Resets all counters to zero (test isolation).
void reset_counters();

/// RAII: while alive, audit failures are recorded here instead of
/// aborting. Nesting installs the innermost capture. Single-threaded.
class ScopedCapture {
 public:
  ScopedCapture();
  ~ScopedCapture();
  ScopedCapture(const ScopedCapture&) = delete;
  ScopedCapture& operator=(const ScopedCapture&) = delete;

  std::size_t count() const noexcept { return messages_.size(); }
  const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }
  /// True iff some captured message contains `needle`.
  bool saw(std::string_view needle) const noexcept;

 private:
  friend void fail(std::string_view, std::string_view, const char*,
                   int) noexcept;
  void record(std::string text) { messages_.push_back(std::move(text)); }

  std::vector<std::string> messages_;
  ScopedCapture* prev_;
};

namespace detail {

/// Scope-exit invariant check (the RUBIN_AUDIT_SCOPE payload).
template <typename Pred>
class ScopeCheck {
 public:
  ScopeCheck(const char* component, const char* msg, const char* file,
             int line, Pred pred)
      : component_(component),
        msg_(msg),
        file_(file),
        line_(line),
        pred_(std::move(pred)) {}
  ScopeCheck(const ScopeCheck&) = delete;
  ScopeCheck& operator=(const ScopeCheck&) = delete;
  ~ScopeCheck() {
    if (!pred_()) fail(component_, msg_, file_, line_);
  }

 private:
  const char* component_;
  const char* msg_;
  const char* file_;
  int line_;
  Pred pred_;
};

}  // namespace detail
}  // namespace rubin::audit

// NOLINTBEGIN(cppcoreguidelines-macro-usage): instrumentation needs macros
// for lazy message evaluation, __FILE__/__LINE__ capture and per-site
// counter statics.
#define RUBIN_AUDIT_ASSERT(component, cond, msg)                          \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::rubin::audit::fail((component), std::string(msg) + " [" #cond "]", \
                           __FILE__, __LINE__);                           \
    }                                                                     \
  } while (0)

// `"" name` only compiles for a string literal.
#define RUBIN_AUDIT_COUNT(name, delta)                                    \
  do {                                                                    \
    static constinit ::rubin::audit::Counter rubin_audit_counter_{"" name}; \
    rubin_audit_counter_.add(static_cast<std::uint64_t>(delta));          \
  } while (0)

#define RUBIN_AUDIT_CONCAT_(a, b) a##b
#define RUBIN_AUDIT_CONCAT(a, b) RUBIN_AUDIT_CONCAT_(a, b)

// Declares a scope guard checking `pred` (a no-arg callable returning
// bool) when the scope unwinds.
#define RUBIN_AUDIT_SCOPE(component, msg, pred)                   \
  ::rubin::audit::detail::ScopeCheck RUBIN_AUDIT_CONCAT(          \
      rubin_audit_scope_, __LINE__)((component), (msg), __FILE__, \
                                    __LINE__, (pred))
// NOLINTEND(cppcoreguidelines-macro-usage)
