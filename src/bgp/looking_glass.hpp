// v6t::bgp — looking-glass visibility checks (§3.2).
//
// The authors confirm every (re-)announcement through a public looking
// glass and RIPEstat before trusting the cycle's data. LookingGlass models
// that verification plane: a set of vantage points, each receiving the
// update feed with its own propagation delay, that can be queried for
// which of them currently carry a route for a prefix.
//
// Note: each vantage point draws its lags from its own stream, so adding
// a LookingGlass leaves every other subscriber's lags unchanged. Its
// deliveries take engine seqs beside the others', so a subscription
// changes only where its own deliveries fall among same-instant ones.
#pragma once

#include <string>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/rib.hpp"

namespace v6t::bgp {

class LookingGlass {
public:
  struct VantagePoint {
    std::string name; // e.g. "ixp-west", "upstream-2"
    PropagationModel propagation;
  };

  /// Subscribes one feed consumer per vantage point.
  LookingGlass(sim::Engine& engine, BgpFeed& feed,
               std::vector<VantagePoint> vantagePoints);

  // Feed callbacks hold pointers into ribs_; the object must stay put.
  LookingGlass(const LookingGlass&) = delete;
  LookingGlass& operator=(const LookingGlass&) = delete;

  /// Number of vantage points that currently carry a route covering the
  /// prefix (exact-or-less-specific).
  [[nodiscard]] std::size_t visibleAt(const net::Prefix& prefix) const;

  /// Fully visible = every vantage point carries it.
  [[nodiscard]] bool fullyVisible(const net::Prefix& prefix) const {
    return visibleAt(prefix) == ribs_.size();
  }

  /// Names of vantage points currently lacking the route, for operator
  /// diagnostics ("upstream-2 has not converged yet").
  [[nodiscard]] std::vector<std::string> missingAt(
      const net::Prefix& prefix) const;

  [[nodiscard]] std::size_t vantagePointCount() const { return ribs_.size(); }

private:
  std::vector<std::string> names_;
  // One shadow RIB per vantage point, maintained from delayed updates.
  std::vector<Rib> ribs_;
};

} // namespace v6t::bgp
