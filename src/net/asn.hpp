// v6t::net — autonomous-system numbers and origin metadata.
//
// The paper attributes scan sources to ASes and categorizes AS networks
// into types (Table 8: hosting, ISP, education, business, government,
// unknown) and research/non-research contexts. AsRegistry plays the role
// of the AS-metadata databases (PeeringDB / bgp.tools style) the authors
// consulted; RdnsRegistry stands in for reverse DNS.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/ipv6.hpp"

namespace v6t::net {

/// Strong AS-number type; 0 is reserved and means "unattributed".
class Asn {
public:
  constexpr Asn() = default;
  constexpr explicit Asn(std::uint32_t value) : value_(value) {}
  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool unattributed() const { return value_ == 0; }
  constexpr auto operator<=>(const Asn&) const = default;

private:
  std::uint32_t value_ = 0;
};

/// Network-type categories of Table 8.
enum class NetworkType : std::uint8_t {
  Hosting,
  Isp,
  Education,
  Business,
  Government,
  Unknown,
};

[[nodiscard]] std::string_view toString(NetworkType t);

struct AsInfo {
  Asn asn;
  std::string name;
  NetworkType type = NetworkType::Unknown;
  std::string country; // ISO 3166-1 alpha-2
  bool research = false; // attributable to a research context (§7.2)
};

/// In-memory AS metadata database.
class AsRegistry {
public:
  /// Insert or overwrite metadata for an AS.
  void add(AsInfo info);

  [[nodiscard]] const AsInfo* find(Asn asn) const;

  /// NetworkType of an AS; Unknown when unattributed or unregistered.
  [[nodiscard]] NetworkType typeOf(Asn asn) const;
  [[nodiscard]] bool isResearch(Asn asn) const;

  [[nodiscard]] std::size_t size() const { return byAsn_.size(); }

private:
  std::unordered_map<std::uint32_t, AsInfo> byAsn_;
};

/// Reverse-DNS database: address -> PTR name. The paper uses rDNS entries
/// both to attribute heavy hitters (e.g. the 6Sense campaign) and to label
/// payload clusters.
class RdnsRegistry {
public:
  void add(const Ipv6Address& addr, std::string name);
  [[nodiscard]] std::optional<std::string_view> lookup(
      const Ipv6Address& addr) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

private:
  std::unordered_map<Ipv6Address, std::string> entries_;
};

} // namespace v6t::net

template <>
struct std::hash<v6t::net::Asn> {
  std::size_t operator()(const v6t::net::Asn& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};
