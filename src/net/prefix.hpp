// v6t::net — IPv6 prefix (CIDR) value type.
//
// A Prefix is stored canonically: all bits past the prefix length are zero.
// The split/low-byte helpers implement exactly the operations the paper's
// BGP experiment performs on T1 (Fig. 2).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "net/ipv6.hpp"

namespace v6t::net {

class Prefix {
public:
  /// The default prefix is ::/0 (the full address space).
  constexpr Prefix() = default;

  /// Canonicalizes: host bits of `addr` beyond `len` are cleared.
  Prefix(const Ipv6Address& addr, unsigned len)
      : addr_(addr.maskedTo(len)), len_(static_cast<std::uint8_t>(len)) {}

  /// Parse "2001:db8::/32". Returns nullopt on malformed input or len > 128.
  [[nodiscard]] static std::optional<Prefix> parse(std::string_view text);
  [[nodiscard]] static Prefix mustParse(std::string_view text);

  [[nodiscard]] std::string toString() const;

  [[nodiscard]] constexpr const Ipv6Address& address() const { return addr_; }
  [[nodiscard]] constexpr unsigned length() const { return len_; }

  /// Number of addresses in this prefix, as log2 (128 - len).
  [[nodiscard]] constexpr unsigned hostBits() const { return 128u - len_; }

  [[nodiscard]] bool contains(const Ipv6Address& a) const {
    return a.maskedTo(len_) == addr_;
  }
  /// True if `other` is equal to or more specific than this prefix.
  [[nodiscard]] bool covers(const Prefix& other) const {
    return other.len_ >= len_ && contains(other.addr_);
  }

  /// Split into the two more-specific prefixes of length len+1.
  /// Precondition: length() < 128.
  [[nodiscard]] std::pair<Prefix, Prefix> split() const;

  /// The k-th sub-prefix of length `newLen` (k counts from the network
  /// address upward). Precondition: newLen >= length(), newLen - length()
  /// <= 64 so that k fits a std::uint64_t.
  [[nodiscard]] Prefix subPrefix(std::uint64_t k, unsigned newLen) const;

  /// Last address of the range (the first is address()).
  [[nodiscard]] Ipv6Address lastAddress() const;

  /// Address at offset `off` from the network address (off interpreted
  /// within the host bits, modulo prefix size).
  [[nodiscard]] Ipv6Address addressAt(u128 off) const;

  /// The "low-byte" endpoint of the prefix: network address with last
  /// byte 1 (e.g. 2001:db8::1 for 2001:db8::/32) — the address the paper's
  /// split schedule avoids putting into the split child (§3.1).
  [[nodiscard]] Ipv6Address lowByteAddress() const {
    return addr_.plus(1);
  }

  constexpr auto operator<=>(const Prefix&) const = default;

private:
  Ipv6Address addr_{};
  std::uint8_t len_ = 0;
};

} // namespace v6t::net

template <>
struct std::hash<v6t::net::Prefix> {
  std::size_t operator()(const v6t::net::Prefix& p) const noexcept {
    return std::hash<v6t::net::Ipv6Address>{}(p.address()) ^
           (static_cast<std::size_t>(p.length()) * 0x9e3779b97f4a7c15ULL);
  }
};
