#include "bgp/rib.hpp"

namespace v6t::bgp {

std::string BgpUpdate::toString() const {
  std::string out = kind == UpdateKind::Announce ? "A " : "W ";
  out += prefix.toString();
  out += " origin AS";
  out += std::to_string(origin.value());
  out += " @ ";
  out += sim::toString(ts);
  return out;
}

void Rib::announce(const net::Prefix& prefix, net::Asn origin, sim::SimTime t) {
  table_.insert(prefix, RouteEntry{origin, t});
  ++announces_;
}

void Rib::withdraw(const net::Prefix& prefix) {
  if (table_.erase(prefix)) ++withdraws_;
}

std::optional<std::pair<net::Prefix, RouteEntry>> Rib::lookup(
    const net::Ipv6Address& addr) const {
  ++lpmLookups_;
  auto match = table_.longestMatch(addr);
  if (!match) return std::nullopt;
  return std::pair{match->first, *match->second};
}

std::vector<std::pair<net::Prefix, RouteEntry>> Rib::announcedRoutes() const {
  std::vector<std::pair<net::Prefix, RouteEntry>> out;
  for (const auto& [prefix, entry] : table_.entries()) {
    out.emplace_back(prefix, *entry);
  }
  return out;
}

} // namespace v6t::bgp
