#include "telescope/fabric.hpp"

namespace v6t::telescope {

DeliveryResult DeliveryFabric::send(net::Packet p) {
  ++sent_;
  p.ts = engine_.now();
  if (auto src = sourceRoutes_.longestMatch(p.src)) {
    p.srcAsn = *src->second;
  }
  PacketTap::Verdict verdict;
  if (tap_ != nullptr) {
    verdict = tap_->onSend(p);
    if (verdict.drop) return {};
  }
  if (!rib_.isRoutable(p.dst)) {
    ++noRoute_;
    return {};
  }
  // The one ownership test: deliver() trusts it.
  for (std::size_t i = 0; i < telescopes_.size(); ++i) {
    Telescope* t = telescopes_[i];
    if (!t->owns(p.dst)) continue;
    if (tap_ != nullptr && !tap_->onDeliver(i, p)) {
      // Capture outage: the telescope is dark — nothing recorded, nothing
      // answered (an active telescope that is down cannot respond either).
      return {};
    }
    const DeliveryResult result = t->deliver(p);
    if (verdict.duplicate) t->deliver(p);
    return result;
  }
  ++toVoid_;
  return {};
}

} // namespace v6t::telescope
