#include "telescope/telescope.hpp"

namespace v6t::telescope {

std::string_view toString(Mode m) {
  switch (m) {
    case Mode::Passive: return "passive";
    case Mode::Traceable: return "traceable";
    case Mode::Active: return "active";
  }
  return "?";
}

bool Telescope::owns(const net::Ipv6Address& dst) const {
  for (const net::Prefix& p : config_.space) {
    if (p.contains(dst)) return true;
  }
  return false;
}

DeliveryResult Telescope::deliver(const net::Packet& p) {
  DeliveryResult result;
  if (config_.excludedSubnet && config_.excludedSubnet->contains(p.dst)) {
    // Productive-subnet traffic is out of scope for the dataset (§3.1) but
    // those hosts do exist and answer.
    ++excluded_;
    result.responded = true;
    return result;
  }
  packets_.push_back(p);
  ++captured_;
  result.captured = true;
  if (tracer_ != nullptr) {
    // (a, b) = (originId, originSeq): the same key the canonical capture
    // merge orders by, linking this record to the PacketSent that caused
    // it; traceId links all the way back to the BGP update.
    tracer_->record({p.ts.millis(), tracer_->context().traceId, p.originId,
                     p.originSeq, traceEntity_,
                     obs::trace::EventKind::PacketCaptured,
                     obs::trace::ClockDomain::Sim});
  }
  // An active telescope completes TCP handshakes from every address; it
  // also answers ICMPv6 echo (it is responsive, which is why the paper
  // notes T4 never appeared on the aliased-prefix list despite answering
  // everywhere).
  if (config_.mode == Mode::Active &&
      (p.proto == net::Protocol::Tcp ||
       (p.proto == net::Protocol::Icmpv6 &&
        p.icmpType == net::kIcmpEchoRequest))) {
    result.responded = true;
  }
  return result;
}

} // namespace v6t::telescope
