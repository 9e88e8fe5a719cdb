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
  history_.push_back(BgpUpdate{UpdateKind::Announce, prefix, origin, t, t});
  ++announces_;
}

void Rib::withdraw(const net::Prefix& prefix, sim::SimTime t) {
  const RouteEntry* entry = table_.findExact(prefix);
  if (entry == nullptr) return;
  const net::Asn origin = entry->origin;
  table_.erase(prefix);
  history_.push_back(BgpUpdate{UpdateKind::Withdraw, prefix, origin, t, t});
  ++withdraws_;
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
