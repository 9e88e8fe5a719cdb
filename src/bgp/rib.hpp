// v6t::bgp — routing information base.
//
// Models the DFZ view relevant to the experiment: which prefixes are
// announced, by whom, since when. Packets in the simulation are deliverable
// to a telescope address only if the RIB has a covering route — exactly the
// condition under which real scan traffic can reach a telescope.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/update.hpp"
#include "net/prefix_table.hpp"

namespace v6t::bgp {

struct RouteEntry {
  net::Asn origin;
  sim::SimTime announcedAt;
};

class Rib {
public:
  /// Install (or refresh) a route.
  void announce(const net::Prefix& prefix, net::Asn origin, sim::SimTime t);

  /// Remove a route; silently ignores withdrawals of unknown prefixes
  /// (as a real speaker would).
  void withdraw(const net::Prefix& prefix);

  /// Longest-prefix match: the most specific route covering `addr`.
  [[nodiscard]] std::optional<std::pair<net::Prefix, RouteEntry>> lookup(
      const net::Ipv6Address& addr) const;

  /// Does any route cover `addr`? The per-packet delivery check; counted
  /// as an LPM lookup, like lookup().
  [[nodiscard]] bool isRoutable(const net::Ipv6Address& addr) const {
    ++lpmLookups_;
    return table_.covers(addr);
  }

  /// The route at exactly `prefix`, or nullptr. Valid until the next
  /// announce() or withdraw(): copy what you need first.
  [[nodiscard]] const RouteEntry* findExact(const net::Prefix& prefix) const {
    return table_.findExact(prefix);
  }

  /// All current routes with their entries, ordered by (address, then
  /// length): a covering route before the routes it covers, disjoint ones
  /// in address order. The BGP-reactive scanners bootstrap from this list
  /// with a stable sort by announcement time, so the order of routes
  /// announced at one instant reaches the captures.
  [[nodiscard]] std::vector<std::pair<net::Prefix, RouteEntry>>
  announcedRoutes() const;

  [[nodiscard]] std::size_t size() const { return table_.size(); }

  // Instrumentation counters, sampled into the obs registry by whoever
  // owns the RIB (the runner, per shard, at every epoch boundary).
  [[nodiscard]] std::uint64_t announceCount() const { return announces_; }
  [[nodiscard]] std::uint64_t withdrawCount() const { return withdraws_; }
  /// LPM lookups served (capture-path routability checks dominate).
  [[nodiscard]] std::uint64_t lpmLookups() const { return lpmLookups_; }

private:
  net::PrefixTable<RouteEntry> table_;
  std::uint64_t announces_ = 0;
  std::uint64_t withdraws_ = 0;
  // mutable: lookup() is logically const; each RIB is owned by exactly one
  // shard thread, so a plain counter is race-free.
  mutable std::uint64_t lpmLookups_ = 0;
};

} // namespace v6t::bgp
