// v6t::telescope — the delivery fabric.
//
// Stand-in for the Internet's data plane between scanners and telescopes:
// a packet reaches a telescope only if the BGP RIB holds a covering route
// for its destination at send time. Routed packets that land in covered
// but unowned space (e.g. the rest of T3/T4's covering /29) disappear into
// the void, exactly like traffic to a borrowed prefix's silent remainder.
//
// The fabric also attributes the origin AS of each source address from a
// registry of source routes — the public routing data a real telescope
// operator would consult — and annotates it on the captured packet.
//
// Per packet (DESIGN.md §11): one source-AS longest match (one hash probe:
// every source route is a /64), one covering-route test (PrefixTable::
// covers, which stops at the shortest covering route), and one ownership
// test, after which the owning telescope gets a packet it need not check
// again.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bgp/rib.hpp"
#include "net/packet.hpp"
#include "net/prefix_table.hpp"
#include "sim/engine.hpp"
#include "telescope/telescope.hpp"

namespace v6t::telescope {

/// Decision hook on the packet path, installed by the fault-injection
/// layer (src/fault). The fabric consults it once per packet before
/// routing (loss / duplication / payload truncation) and once per
/// delivery (scheduled capture outages). No tap installed = the identity
/// behavior, bit for bit. Implementations must be deterministic functions
/// of the packet (and the tap's own configuration) — never of arrival
/// order — or sharded runs lose their equivalence guarantee.
class PacketTap {
public:
  virtual ~PacketTap() = default;

  struct Verdict {
    bool drop = false; // packet vanishes before routing
    bool duplicate = false; // owning telescope records it twice
  };

  /// Called after timestamping and source-AS annotation, before routing.
  /// May mutate the packet (payload truncation).
  virtual Verdict onSend(net::Packet& p) = 0;

  /// False = the owning telescope (by attach index) is inside a scheduled
  /// capture outage and records nothing.
  virtual bool onDeliver(std::size_t telescopeIdx, const net::Packet& p) = 0;
};

class DeliveryFabric {
public:
  DeliveryFabric(sim::Engine& engine, const bgp::Rib& rib)
      : engine_(engine), rib_(rib) {}

  /// Attach a telescope; it will receive packets destined to its space.
  /// Telescopes must outlive the fabric.
  void attach(Telescope& t) { telescopes_.push_back(&t); }

  /// Record that `prefix` is originated by `asn` — the source-side routing
  /// information used for AS attribution of captured packets.
  void registerSourceRoute(const net::Prefix& prefix, net::Asn asn) {
    sourceRoutes_.insert(prefix, asn);
  }

  /// Inject a packet. Timestamps it with the current simulated time,
  /// annotates the source AS, routes it to the telescope that owns its
  /// destination. Returns what happened (captured / responded) so
  /// reactive scanners can adapt.
  DeliveryResult send(net::Packet p);

  [[nodiscard]] std::uint64_t sentPackets() const { return sent_; }
  [[nodiscard]] std::uint64_t droppedNoRoute() const { return noRoute_; }
  [[nodiscard]] std::uint64_t deliveredToVoid() const { return toVoid_; }

  /// Install (or clear, with nullptr) the fault tap. The tap must outlive
  /// the fabric. Without a tap the packet path is exactly the historical
  /// one — zero-fault runs stay bitwise-identical.
  void setTap(PacketTap* tap) { tap_ = tap; }

private:
  sim::Engine& engine_;
  const bgp::Rib& rib_;
  std::vector<Telescope*> telescopes_;
  net::PrefixTable<net::Asn> sourceRoutes_;
  PacketTap* tap_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t noRoute_ = 0;
  std::uint64_t toVoid_ = 0;
};

} // namespace v6t::telescope
