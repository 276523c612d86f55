// Process-wide feature gates resolved from environment variables.
//
// Two subsystems ship an on/off kill switch (KSHAPE_HALF_SPECTRUM and
// KSHAPE_PRUNE; KSHAPE_SIMD picks a kernel backend through its own
// parser in simd/dispatch.cc) with identical semantics: the variable is
// read once, lazily, on first use; "on" or unset enables the feature, "off"
// disables it, and anything else aborts (a silently ignored typo in a CI leg
// would void the equivalence contract that leg exists to check). EnvGate is
// that logic in one place. EnvIntOverride is the sibling for integer-valued
// overrides (e.g. KSHAPE_MODEL_V forcing a model-format version stamp).
//
// Resolution uses the same lazy atomic idiom as the SIMD dispatch table: a
// racing first use resolves the same value on every thread, so no lock is
// needed. Set*ForTesting stores an explicit value, which also short-circuits
// any later environment lookup.

#ifndef KSHAPE_COMMON_ENV_GATE_H_
#define KSHAPE_COMMON_ENV_GATE_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/check.h"

namespace kshape::common {

// On/off/unset boolean gate. Default (unset or empty) is enabled.
class EnvGate {
 public:
  constexpr explicit EnvGate(const char* variable) : variable_(variable) {}

  EnvGate(const EnvGate&) = delete;
  EnvGate& operator=(const EnvGate&) = delete;

  bool enabled() {
    int v = state_.load(std::memory_order_acquire);
    if (v < 0) {
      v = Resolve();
      state_.store(v, std::memory_order_release);
    }
    return v != 0;
  }

  void SetForTesting(bool enabled) {
    state_.store(enabled ? 1 : 0, std::memory_order_release);
  }

 private:
  int Resolve() const {
    const char* env = std::getenv(variable_);
    if (env == nullptr || *env == '\0') return 1;
    if (std::strcmp(env, "on") == 0) return 1;
    if (std::strcmp(env, "off") == 0) return 0;
    KSHAPE_CHECK_MSG(
        false, (std::string(variable_) + " must be 'on' or 'off'").c_str());
    return 1;
  }

  const char* variable_;
  // -1 unresolved, 0 off, 1 on.
  std::atomic<int> state_{-1};
};

// Non-negative integer override with a compiled-in fallback. Unset or empty
// yields the fallback; a decimal integer in [0, 2^31) yields that value;
// anything else aborts.
class EnvIntOverride {
 public:
  constexpr EnvIntOverride(const char* variable, std::int64_t fallback)
      : variable_(variable), fallback_(fallback) {}

  EnvIntOverride(const EnvIntOverride&) = delete;
  EnvIntOverride& operator=(const EnvIntOverride&) = delete;

  std::int64_t value() {
    std::int64_t v = state_.load(std::memory_order_acquire);
    if (v == kUnresolved) {
      v = Resolve();
      state_.store(v, std::memory_order_release);
    }
    return v;
  }

  void SetForTesting(std::int64_t value) {
    KSHAPE_CHECK(value >= 0 && value != kUnresolved);
    state_.store(value, std::memory_order_release);
  }

  // Reverts to the compiled-in fallback (not the environment: tests that
  // override must restore a known state, not whatever the CI leg exported).
  void ResetForTesting() {
    state_.store(fallback_, std::memory_order_release);
  }

 private:
  static constexpr std::int64_t kUnresolved = -1;

  std::int64_t Resolve() const {
    const char* env = std::getenv(variable_);
    if (env == nullptr || *env == '\0') return fallback_;
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    KSHAPE_CHECK_MSG(
        end != env && *end == '\0' && parsed >= 0 && parsed < (1LL << 31),
        (std::string(variable_) + " must be a non-negative decimal integer")
            .c_str());
    return parsed;
  }

  const char* variable_;
  std::int64_t fallback_;
  std::atomic<std::int64_t> state_{kUnresolved};
};

}  // namespace kshape::common

#endif  // KSHAPE_COMMON_ENV_GATE_H_
