#include "net/asn.hpp"

namespace v6t::net {

std::string_view toString(NetworkType t) {
  switch (t) {
    case NetworkType::Hosting: return "Hosting";
    case NetworkType::Isp: return "ISP";
    case NetworkType::Education: return "Education";
    case NetworkType::Business: return "Business";
    case NetworkType::Government: return "Government";
    case NetworkType::Unknown: return "Unknown";
  }
  return "Unknown";
}

void AsRegistry::add(AsInfo info) {
  byAsn_[info.asn.value()] = std::move(info);
}

const AsInfo* AsRegistry::find(Asn asn) const {
  const auto it = byAsn_.find(asn.value());
  return it == byAsn_.end() ? nullptr : &it->second;
}

NetworkType AsRegistry::typeOf(Asn asn) const {
  const AsInfo* info = find(asn);
  return info == nullptr ? NetworkType::Unknown : info->type;
}

bool AsRegistry::isResearch(Asn asn) const {
  const AsInfo* info = find(asn);
  return info != nullptr && info->research;
}

void RdnsRegistry::add(const Ipv6Address& addr, std::string name) {
  entries_[addr] = std::move(name);
}

std::optional<std::string_view> RdnsRegistry::lookup(
    const Ipv6Address& addr) const {
  const auto it = entries_.find(addr);
  if (it == entries_.end()) return std::nullopt;
  return std::string_view{it->second};
}

} // namespace v6t::net
