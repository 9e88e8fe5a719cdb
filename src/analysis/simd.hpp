// v6t::analysis — vectorized-kernel dispatch (DESIGN.md §16).
//
// The two hot analysis kernels (NIST frequency/runs on packed bit words,
// the addr6 word classifier) each exist twice: a scalar reference
// implementation and a word-level/vector implementation proven
// bit-identical to it by the test_simd_kernels property battery. Which one
// runs is decided here:
//
//   compile time   -DV6T_SIMD=OFF defines V6T_SIMD_DISABLED (a PUBLIC
//                  compile definition on v6t_analysis) and pins every
//                  dispatch to the scalar reference — the cross-check
//                  build CI compares digests against.
//   run time       setSimdKernelsEnabled(false) flips the same dispatch in
//                  a default build, so ONE binary can measure scalar vs
//                  vectorized legs and verify their digests agree
//                  (bench/simd_kernels does exactly that).
//
// Because both paths produce bit-identical doubles, the toggle is pure
// performance: no result anywhere in the repo may depend on it.
#pragma once

namespace v6t::analysis {

#if defined(V6T_SIMD_DISABLED)
inline constexpr bool kSimdCompiledIn = false;
#else
inline constexpr bool kSimdCompiledIn = true;
#endif

/// Enable/disable the vectorized kernel implementations at run time.
/// Forced (and sticky) false when compiled out with V6T_SIMD=OFF.
void setSimdKernelsEnabled(bool on);

/// True when the vectorized implementations are compiled in AND enabled.
[[nodiscard]] bool simdKernelsEnabled();

/// RAII toggle for tests/benches: restores the previous setting on exit.
class ScopedSimdKernels {
public:
  explicit ScopedSimdKernels(bool on) : previous_(simdKernelsEnabled()) {
    setSimdKernelsEnabled(on);
  }
  ~ScopedSimdKernels() { setSimdKernelsEnabled(previous_); }
  ScopedSimdKernels(const ScopedSimdKernels&) = delete;
  ScopedSimdKernels& operator=(const ScopedSimdKernels&) = delete;

private:
  bool previous_;
};

} // namespace v6t::analysis
