// v6t::analysis — NIST SP 800-22 randomness tests (Appendix B).
//
// The four tests the paper applies to target-address bit sequences
// (sessions with >= 100 packets; IID bits and subnet bits separately):
//
//   frequency (monobit)   balance of ones vs zeros
//   runs                  oscillation rate of identical-bit runs
//   spectral (DFT)        periodic features via discrete Fourier transform
//   cumulative sums       maximum partial-sum excursion (forward/backward)
//
// Each test returns a p-value; p >= alpha (paper: 0.01) means the sequence
// is consistent with randomness.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv6.hpp"

namespace v6t::analysis {

inline constexpr double kNistAlpha = 0.01;

struct NistResult {
  double pValue = 0.0;
  [[nodiscard]] bool pass(double alpha = kNistAlpha) const {
    return pValue >= alpha;
  }
};

/// Bits are one per element, values 0 or 1.
using BitSequence = std::vector<std::uint8_t>;

/// Bit-packed sequence view, MSB-first: sequence bit `i` is word bit
/// `63 - i % 64` of `words[i / 64]` (so an address's 64 IID bits and one
/// u64 lane are the same object, see DESIGN.md §16). Padding bits below
/// the last valid bit of the final word may hold anything — every packed
/// kernel masks them out.
struct PackedBits {
  std::span<const std::uint64_t> words;
  std::size_t bitCount = 0;
};

/// Pack a byte-per-bit sequence into MSB-first words (padding zeroed).
[[nodiscard]] std::vector<std::uint64_t> packBits(
    std::span<const std::uint8_t> bits);

/// Unpack back to one byte per bit — the bridge to the scalar reference
/// tests (unpack(pack(b)) == b for every sequence).
[[nodiscard]] BitSequence unpackBits(PackedBits bits);

/// SP 800-22 §2.1 — frequency (monobit) test. Requires n >= 100.
[[nodiscard]] NistResult frequencyTest(std::span<const std::uint8_t> bits);

/// SP 800-22 §2.3 — runs test. Returns p = 0 if the frequency precondition
/// |pi - 1/2| >= 2/sqrt(n) fails (per the spec the test is then skipped as
/// non-random).
[[nodiscard]] NistResult runsTest(std::span<const std::uint8_t> bits);

/// Word-level frequency test: popcount per word instead of one branch per
/// bit. The ±1 sum is reconstructed exactly (sum = 2·ones − n, integers),
/// so the p-value is bit-identical to frequencyTest on the unpacked bits.
[[nodiscard]] NistResult frequencyTestPacked(PackedBits bits);

/// Word-level runs test: transitions via `w ^ (w << 1)` + popcount, with
/// boundary masks for the word seams and the partial final word. vObs and
/// the ones count are exact integers, so the p-value is bit-identical to
/// runsTest on the unpacked bits.
[[nodiscard]] NistResult runsTestPacked(PackedBits bits);

/// SP 800-22 §2.6 — discrete Fourier transform (spectral) test.
[[nodiscard]] NistResult spectralTest(std::span<const std::uint8_t> bits);

/// SP 800-22 §2.13 — cumulative sums test; forward (mode 0) or backward.
[[nodiscard]] NistResult cusumTest(std::span<const std::uint8_t> bits,
                                   bool forward = true);

/// Extract a bit sequence from target addresses: `firstBit`..`firstBit +
/// bitCount - 1` of every address, concatenated in order. The paper uses
/// bits 32..63 (the subnet under a /32 telescope) and 64..127 (the IID).
[[nodiscard]] BitSequence bitsFromAddresses(
    std::span<const net::Ipv6Address> addrs, unsigned firstBit,
    unsigned bitCount);

/// All four tests on one sequence.
struct NistSummary {
  NistResult frequency;
  NistResult runs;
  NistResult spectral;
  NistResult cusumForward;
  NistResult cusumBackward;

  [[nodiscard]] int passCount(double alpha = kNistAlpha) const {
    return frequency.pass(alpha) + runs.pass(alpha) + spectral.pass(alpha) +
           cusumForward.pass(alpha) + cusumBackward.pass(alpha);
  }
};

[[nodiscard]] NistSummary runAllNistTests(std::span<const std::uint8_t> bits);

/// Subset of the battery to run — the scheduler's split unit for heavy
/// sessions. The spectral (DFT) test costs about as much as the other
/// four combined, so a heavy session splits into a Spectral and a
/// NonSpectral subtask whose summaries write disjoint fields; merging is
/// field-wise assignment and bitwise-equals the unsplit run.
enum class NistBlock : std::uint8_t { All, Spectral, NonSpectral };

/// Run one test block; fields outside the block stay default-initialized.
[[nodiscard]] NistSummary runNistTests(std::span<const std::uint8_t> bits,
                                       NistBlock block);

/// The battery on a packed sequence: frequency/runs run word-level on the
/// packed words, the remaining tests run the scalar reference on a lazily
/// unpacked copy. Bit-identical to runNistTests on the unpacked bits.
[[nodiscard]] NistSummary runNistTestsPacked(PackedBits bits, NistBlock block);

} // namespace v6t::analysis
