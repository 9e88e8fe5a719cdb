// v6t::bgp — model of the TUM hitlist service.
//
// The real service aggregates responsive addresses and (non-)aliased
// prefixes and republishes them daily. For the experiment only two
// behaviors matter (§3.2, §7.2): (i) newly announced prefixes appear on
// the non-aliased prefix list a few days after their announcement, and
// (ii) fully-responsive prefixes (like T4) are *not* reliably detected as
// aliased. Hitlist-driven scanners subscribe to publication events.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "bgp/feed.hpp"
#include "net/prefix.hpp"
#include "sim/engine.hpp"

namespace v6t::bgp {

class HitlistService {
public:
  struct Params {
    sim::Duration listingDelay = sim::days(5); // announcement -> listed
    sim::Duration jitter = sim::days(2); // uniform extra delay
  };

  /// Subscribes to the feed; newly announced prefixes get listed after the
  /// configured delay. Withdrawn prefixes are retained (the real hitlist
  /// ages entries out slowly; within an experiment they persist).
  HitlistService(sim::Engine& engine, BgpFeed& feed, Params params,
                 std::uint64_t seed);

  /// Every listed prefix with the time it became listed.
  [[nodiscard]] const std::map<net::Prefix, sim::SimTime>& listings() const {
    return listed_;
  }

  /// Register a consumer notified at publication time of each new prefix.
  void onListed(std::function<void(const net::Prefix&, sim::SimTime)> cb) {
    consumers_.push_back(std::move(cb));
  }

private:
  void handleUpdate(const BgpUpdate& update);

  sim::Engine& engine_;
  Params params_;
  sim::Rng rng_;
  std::map<net::Prefix, sim::SimTime> listed_;
  std::vector<std::function<void(const net::Prefix&, sim::SimTime)>>
      consumers_;
};

} // namespace v6t::bgp
