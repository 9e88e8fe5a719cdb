// Checked environment overrides for the benches: a junk or out-of-range
// value ends the bench with a message and exit 2 before any work starts,
// instead of silently running some other workload.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "core/config.hpp"

namespace v6t::bench {

/// Ends the bench when an environment override is junk or out of range.
[[noreturn]] inline void badEnv(const char* name, const char* value,
                                const std::string& want) {
  std::cerr << name << " must be " << want << ": '" << value << "'\n";
  std::exit(2);
}

/// A finite number > 0 from `name` (a scale or a duration), or `fallback`
/// when it is unset.
inline double envPositive(const char* name, double fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  double v = 0;
  if (!core::parseDouble(s, v) || !(v > 0.0) || !std::isfinite(v)) {
    badEnv(name, s, "a finite number > 0");
  }
  return v;
}

/// An integer in [lo, hi] from `name`, or `fallback` when it is unset.
inline std::uint64_t envInt(
    const char* name, std::uint64_t fallback, std::uint64_t lo,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  std::uint64_t v = 0;
  if (!core::parseU64(s, v) || v < lo || v > hi) {
    badEnv(name, s,
           hi == std::numeric_limits<std::uint64_t>::max()
               ? "an integer >= " + std::to_string(lo)
               : "an integer in " + std::to_string(lo) + ".." +
                     std::to_string(hi));
  }
  return v;
}

} // namespace v6t::bench
