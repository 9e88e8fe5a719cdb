#include "analysis/nist.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

namespace v6t::analysis {

namespace {

/// Iterative radix-2 FFT (in place). Size must be a power of two.
void fft(std::vector<std::complex<double>>& a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

} // namespace

NistResult frequencyTest(std::span<const std::uint8_t> bits) {
  const std::size_t n = bits.size();
  if (n == 0) return {0.0};
  std::int64_t sum = 0;
  for (std::uint8_t b : bits) sum += b != 0 ? 1 : -1;
  const double sObs =
      std::abs(static_cast<double>(sum)) / std::sqrt(static_cast<double>(n));
  return {std::erfc(sObs / std::numbers::sqrt2)};
}

NistResult runsTest(std::span<const std::uint8_t> bits) {
  const std::size_t n = bits.size();
  if (n < 2) return {0.0};
  std::size_t ones = 0;
  for (std::uint8_t b : bits) ones += b != 0 ? 1 : 0;
  const double pi = static_cast<double>(ones) / static_cast<double>(n);
  const double tau = 2.0 / std::sqrt(static_cast<double>(n));
  if (std::abs(pi - 0.5) >= tau) return {0.0}; // frequency precondition
  std::size_t vObs = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if ((bits[i] != 0) != (bits[i - 1] != 0)) ++vObs;
  }
  const double nD = static_cast<double>(n);
  const double numerator =
      std::abs(static_cast<double>(vObs) - 2.0 * nD * pi * (1.0 - pi));
  const double denominator =
      2.0 * std::sqrt(2.0 * nD) * pi * (1.0 - pi);
  return {std::erfc(numerator / denominator)};
}

std::vector<std::uint64_t> packBits(std::span<const std::uint8_t> bits) {
  std::vector<std::uint64_t> words((bits.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] != 0) words[i / 64] |= 1ULL << (63 - i % 64);
  }
  return words;
}

BitSequence unpackBits(PackedBits bits) {
  BitSequence out(bits.bitCount);
  std::size_t i = 0;
  for (std::size_t w = 0; i < bits.bitCount; ++w) {
    std::uint64_t v = bits.words[w];
    const std::size_t take = std::min<std::size_t>(64, bits.bitCount - i);
    for (std::size_t b = 0; b < take; ++b) {
      out[i + b] = static_cast<std::uint8_t>(v >> 63);
      v <<= 1;
    }
    i += take;
  }
  return out;
}

namespace {

/// Population count of the first `bitCount` (MSB-first) bits; padding in
/// the final word is masked out, so callers need not zero it.
std::uint64_t packedOnes(PackedBits bits) {
  const std::size_t fullWords = bits.bitCount / 64;
  std::uint64_t ones = 0;
  for (std::size_t w = 0; w < fullWords; ++w) {
    ones += static_cast<std::uint64_t>(std::popcount(bits.words[w]));
  }
  const unsigned rem = bits.bitCount % 64;
  if (rem != 0) {
    ones += static_cast<std::uint64_t>(
        std::popcount(bits.words[fullWords] >> (64 - rem)));
  }
  return ones;
}

} // namespace

NistResult frequencyTestPacked(PackedBits bits) {
  const std::size_t n = bits.bitCount;
  if (n == 0) return {0.0};
  // sum(±1 per bit) = ones − zeros = 2·ones − n, exact in integers, so the
  // double expressions below match frequencyTest() bit for bit.
  const std::int64_t sum = 2 * static_cast<std::int64_t>(packedOnes(bits)) -
                           static_cast<std::int64_t>(n);
  const double sObs =
      std::abs(static_cast<double>(sum)) / std::sqrt(static_cast<double>(n));
  return {std::erfc(sObs / std::numbers::sqrt2)};
}

NistResult runsTestPacked(PackedBits bits) {
  const std::size_t n = bits.bitCount;
  if (n < 2) return {0.0};
  const std::uint64_t ones = packedOnes(bits);
  const double pi = static_cast<double>(ones) / static_cast<double>(n);
  const double tau = 2.0 / std::sqrt(static_cast<double>(n));
  if (std::abs(pi - 0.5) >= tau) return {0.0}; // frequency precondition
  // Adjacent-bit transitions inside word w sit in t = w ^ (w << 1): word
  // bit b of t is seq[63−b] ^ seq[64−b], valid for b in [1, 63] on a full
  // word (mask ~1) and b in [65−rem, 63] on a rem-bit final word. Seams
  // compare the previous word's LSB (its last sequence bit) against the
  // next word's MSB (its first).
  const std::size_t fullWords = n / 64;
  const unsigned rem = n % 64;
  std::size_t vObs = 1;
  for (std::size_t w = 0; w < fullWords; ++w) {
    const std::uint64_t word = bits.words[w];
    vObs += static_cast<std::size_t>(
        std::popcount((word ^ (word << 1)) & ~1ULL));
    if (w > 0) vObs += (bits.words[w - 1] & 1) != (word >> 63);
  }
  if (rem != 0) {
    const std::uint64_t word = bits.words[fullWords];
    if (fullWords > 0) {
      vObs += (bits.words[fullWords - 1] & 1) != (word >> 63);
    }
    if (rem >= 2) {
      vObs += static_cast<std::size_t>(
          std::popcount((word ^ (word << 1)) & (~0ULL << (65 - rem))));
    }
  }
  const double nD = static_cast<double>(n);
  const double numerator =
      std::abs(static_cast<double>(vObs) - 2.0 * nD * pi * (1.0 - pi));
  const double denominator =
      2.0 * std::sqrt(2.0 * nD) * pi * (1.0 - pi);
  return {std::erfc(numerator / denominator)};
}

NistResult spectralTest(std::span<const std::uint8_t> bits) {
  const std::size_t n = bits.size();
  if (n < 4) return {0.0};
  std::size_t padded = 1;
  while (padded < n) padded <<= 1;
  std::vector<std::complex<double>> x(padded, {0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = {bits[i] != 0 ? 1.0 : -1.0, 0.0};
  }
  fft(x);
  // Peak threshold per SP 800-22 (computed for the true length n).
  const double nD = static_cast<double>(n);
  const double threshold = std::sqrt(std::log(1.0 / 0.05) * nD);
  const std::size_t half = n / 2;
  std::size_t below = 0;
  // Evaluate the first n/2 frequency bins of the (zero-padded) transform;
  // zero padding interpolates the spectrum without shifting peak energy.
  for (std::size_t i = 0; i < half; ++i) {
    if (std::abs(x[i * padded / n]) < threshold) ++below;
  }
  const double expected = 0.95 * nD / 2.0;
  const double variance = nD * 0.95 * 0.05 / 4.0;
  const double d =
      (static_cast<double>(below) - expected) / std::sqrt(variance);
  return {std::erfc(std::abs(d) / std::numbers::sqrt2)};
}

NistResult cusumTest(std::span<const std::uint8_t> bits, bool forward) {
  const std::size_t n = bits.size();
  if (n == 0) return {0.0};
  std::int64_t sum = 0;
  std::int64_t maxExcursion = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t bit = forward ? bits[i] : bits[n - 1 - i];
    sum += bit != 0 ? 1 : -1;
    maxExcursion = std::max(maxExcursion, std::abs(sum));
  }
  const double z = static_cast<double>(maxExcursion);
  if (z == 0.0) return {0.0};
  const double nD = static_cast<double>(n);
  const double sqrtN = std::sqrt(nD);
  const auto phi = [](double x) {
    return 0.5 * std::erfc(-x / std::numbers::sqrt2);
  };

  // SP 800-22 §2.13.5, with the exact floor-based summation bounds.
  double p = 1.0;
  const auto k1Start =
      static_cast<std::int64_t>(std::floor((-nD / z + 1.0) / 4.0));
  const auto k1End =
      static_cast<std::int64_t>(std::floor((nD / z - 1.0) / 4.0));
  for (std::int64_t k = k1Start; k <= k1End; ++k) {
    const double kD = static_cast<double>(k);
    p -= phi((4.0 * kD + 1.0) * z / sqrtN) -
         phi((4.0 * kD - 1.0) * z / sqrtN);
  }
  const auto k2Start =
      static_cast<std::int64_t>(std::floor((-nD / z - 3.0) / 4.0));
  const auto k2End = k1End;
  for (std::int64_t k = k2Start; k <= k2End; ++k) {
    const double kD = static_cast<double>(k);
    p += phi((4.0 * kD + 3.0) * z / sqrtN) -
         phi((4.0 * kD + 1.0) * z / sqrtN);
  }
  return {std::clamp(p, 0.0, 1.0)};
}

BitSequence bitsFromAddresses(std::span<const net::Ipv6Address> addrs,
                              unsigned firstBit, unsigned bitCount) {
  BitSequence bits;
  bits.reserve(addrs.size() * bitCount);
  for (const net::Ipv6Address& a : addrs) {
    for (unsigned i = 0; i < bitCount; ++i) {
      bits.push_back(a.bit(firstBit + i) ? 1 : 0);
    }
  }
  return bits;
}

NistSummary runAllNistTests(std::span<const std::uint8_t> bits) {
  return runNistTests(bits, NistBlock::All);
}

NistSummary runNistTests(std::span<const std::uint8_t> bits,
                         NistBlock block) {
  NistSummary summary;
  if (block != NistBlock::Spectral) {
    summary.frequency = frequencyTest(bits);
    summary.runs = runsTest(bits);
    summary.cusumForward = cusumTest(bits, true);
    summary.cusumBackward = cusumTest(bits, false);
  }
  if (block != NistBlock::NonSpectral) {
    summary.spectral = spectralTest(bits);
  }
  return summary;
}

NistSummary runNistTestsPacked(PackedBits bits, NistBlock block) {
  NistSummary summary;
  // Cusum and spectral still walk one byte per bit; unpack lazily, once,
  // only for the blocks that need it.
  BitSequence unpacked;
  bool haveUnpacked = false;
  const auto scalarBits = [&]() -> std::span<const std::uint8_t> {
    if (!haveUnpacked) {
      unpacked = unpackBits(bits);
      haveUnpacked = true;
    }
    return unpacked;
  };
  if (block != NistBlock::Spectral) {
    summary.frequency = frequencyTestPacked(bits);
    summary.runs = runsTestPacked(bits);
    summary.cusumForward = cusumTest(scalarBits(), true);
    summary.cusumBackward = cusumTest(scalarBits(), false);
  }
  if (block != NistBlock::NonSpectral) {
    summary.spectral = spectralTest(scalarBits());
  }
  return summary;
}

} // namespace v6t::analysis
