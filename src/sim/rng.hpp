// v6t::sim — deterministic random number generation.
//
// The simulation must be bit-for-bit reproducible from a single seed, so we
// implement our own small, well-studied generators instead of relying on
// implementation-defined std::random distributions:
//   * SplitMix64 — seed expansion / cheap independent streams,
//   * Xoshiro256** — the workhorse generator.
// All distribution mappings are written out explicitly.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>

namespace v6t::sim {

/// SplitMix64 (Steele, Lea, Flood 2014). Primarily used to seed Xoshiro and
/// to derive independent per-agent streams from an experiment master seed.
class SplitMix64 {
public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

private:
  std::uint64_t state_;
};

/// Derive the seed of an independent stream identified by (seed, streamKey).
/// The mapping depends only on its two inputs — never on how many other
/// streams exist or in which order they are derived — which is what makes
/// runs agree at every shard count: a consumer keyed by a stable id draws
/// the same sequence no matter which shard it lands on.
[[nodiscard]] constexpr std::uint64_t deriveStreamSeed(std::uint64_t seed,
                                                       std::uint64_t key) {
  SplitMix64 outer{seed};
  SplitMix64 inner{key};
  SplitMix64 mixed{outer.next() ^ inner.next()};
  return mixed.next();
}

/// Xoshiro256** 1.0 (Blackman & Vigna). Fast, 256-bit state, passes BigCrush.
class Rng {
public:
  /// Seeds the 256-bit state by expanding `seed` through SplitMix64.
  explicit Rng(std::uint64_t seed = 0x6a09e667f3bcc908ULL) {
    SplitMix64 sm{seed};
    for (auto& s : state_) s = sm.next();
  }

  /// Derive an independent generator (for a scanner agent, a telescope, …).
  /// Streams derived with distinct tags are statistically independent.
  [[nodiscard]] Rng fork(std::uint64_t tag) {
    SplitMix64 sm{next() ^ (tag * 0x9e3779b97f4a7c15ULL)};
    Rng child{sm.next()};
    return child;
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound == 0 yields 0.
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Lemire's nearly-divisionless method with rejection for exactness.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  bool chance(double p) { return uniform() < p; }

  /// Exponential with given mean (mean = 1/lambda). Used for Poisson
  /// inter-arrival times of scan sessions and packets.
  double exponential(double mean);

  /// Poisson-distributed count with given mean (Knuth for small means,
  /// normal approximation above 64).
  std::uint64_t poisson(double mean);

  /// Standard normal via Box–Muller (no cached value; both draws folded).
  double normal(double mu = 0.0, double sigma = 1.0);

  /// Pareto (power-law) sample with scale xm > 0 and shape alpha > 0.
  /// Heavy-hitter packet volumes are Pareto-distributed.
  double pareto(double xm, double alpha);

  /// Log-normal sample.
  double lognormal(double mu, double sigma);

  /// Pick an index according to non-negative weights. Returns weights.size()
  /// only if all weights are zero.
  std::size_t weightedPick(std::span<const double> weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

} // namespace v6t::sim
