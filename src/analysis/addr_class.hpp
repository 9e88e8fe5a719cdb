// v6t::analysis — target address-type classification (Table 3).
//
// Reimplements the taxonomy of the IPv6Toolkit's `addr6` per RFC 7707 §3 /
// RFC 4291, applied to the interface-identifier part of a target address:
//
//   subnet-anycast   IID == 0 (Subnet-Router anycast, RFC 4291 §2.6.1)
//   isatap           IID starts 0000:5efe (RFC 5214)
//   ieee-derived     EUI-64 expansion: IID bytes 3..4 == ff:fe
//   embedded-port    IID encodes a well-known service port (hex or
//                    "decimal-as-hex": 2001:db8::443 / ::80)
//   low-byte         IID zero except its lowest 16 bits
//   embedded-ipv4    IPv4 address in the low 32 bits (or one octet per
//                    16-bit group)
//   wordy            hex-letter words in the IID (2001:db8::cafe)
//   pattern-bytes    conspicuously repetitive byte content
//   randomized       none of the above, high nibble diversity
//
// Precedence is the listed order; every address gets exactly one label.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "net/ipv6.hpp"

namespace v6t::analysis {

enum class AddressType : std::uint8_t {
  SubnetAnycast,
  Isatap,
  IeeeDerived,
  EmbeddedPort,
  LowByte,
  EmbeddedIpv4,
  Wordy,
  PatternBytes,
  Randomized,
};

inline constexpr std::size_t kAddressTypeCount = 9;

[[nodiscard]] std::string_view toString(AddressType t);

/// Classify one target address (the /64 network part is ignored; the paper
/// classifies IIDs because the network part is the telescope's own prefix).
[[nodiscard]] AddressType classifyAddress(const net::Ipv6Address& addr);

/// Branch-reduced classifier over the IID as one u64 lane (the columnar
/// fast path, DESIGN.md §16): embedded-port via a precomputed 64 KiB
/// membership bitmap, wordy behind a SWAR decimal-nibble prefilter, the
/// pattern/entropy split via nibble counts and a 17-entry term table.
/// Returns exactly classifyAddress(addr) for iid == addr.lo64() — the
/// property battery in test_simd_kernels enforces this bit for bit.
[[nodiscard]] AddressType classifyAddressWord(std::uint64_t iid);


/// Shannon entropy (bits per nibble, in [0,4]) of the 16 IID nibbles —
/// the diversity measure behind the pattern/randomized split.
[[nodiscard]] double iidNibbleEntropy(const net::Ipv6Address& addr);

/// Histogram of types over a target list.
struct AddressTypeHistogram {
  std::uint64_t count[kAddressTypeCount] = {};

  void add(AddressType t) { ++count[static_cast<std::size_t>(t)]; }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : count) sum += c;
    return sum;
  }
  [[nodiscard]] std::uint64_t of(AddressType t) const {
    return count[static_cast<std::size_t>(t)];
  }
};

/// Histogram over a row list, one scalar classifyAddress per target — the
/// reference the word classifier below is checked against.
[[nodiscard]] AddressTypeHistogram classifyAll(
    std::span<const net::Ipv6Address> targets);

/// Histogram over a contiguous IID lane with the word classifier; equal to
/// classifyAll over the same addresses.
[[nodiscard]] AddressTypeHistogram classifyLanes(
    std::span<const std::uint64_t> iids);

} // namespace v6t::analysis
