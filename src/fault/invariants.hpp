// v6t::fault — invariants that must hold even under injected faults.
//
// The chaos suite's oracle: each rule states a property of the pipeline
// that no fault spec is allowed to break (faults may change *what* is
// captured, never the structural guarantees of the capture). Rules append
// human-readable violation strings instead of asserting, so one run can
// report every broken property and tests can assert on specific rules
// both positively (clean input passes) and negatively (a deliberately
// broken fixture trips exactly this rule).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/rib.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "telescope/capture_store.hpp"
#include "telescope/session.hpp"

namespace v6t::fault {

class InvariantChecker {
public:
  /// Rule 1 — sessions never span a declared capture gap: no two
  /// consecutive packets of one session straddle a gap window (the
  /// interval between them overlapping [start, end) of a gap means the
  /// source fell silent across an outage and must have been split).
  /// `gapWindows` are the windows applying to the capture's telescope.
  bool checkSessionsRespectGaps(
      std::span<const telescope::Session> sessions,
      std::span<const net::Packet> packets,
      std::span<const std::pair<sim::SimTime, sim::SimTime>> gapWindows);

  /// Rule 2 — RIB longest-prefix match agrees with a linear scan over
  /// `routes` (the oracle's ground truth) for every probe address. The
  /// caller supplies the route list it believes the RIB holds; a doctored
  /// list is how the negative test trips the rule.
  bool checkRibAgainstLinearScan(
      const bgp::Rib& rib,
      std::span<const std::pair<net::Prefix, net::Asn>> routes,
      std::span<const net::Ipv6Address> probes);

  /// Rule 3 — the merged capture is in canonical order: non-decreasing
  /// (ts, originId, originSeq). Exact duplicates are legal (packet
  /// duplication faults record a packet twice); inversions are not.
  bool checkCanonicalOrder(const telescope::CaptureStore& capture);

  /// Rule 3 for one step of a stream: `next`, the packet at position
  /// `index`, may follow `prev`. checkCanonicalOrder applies it to every
  /// step of a capture; a spilled run applies it as the stream goes by.
  bool checkCanonicalStep(const net::Packet& prev, const net::Packet& next,
                          std::uint64_t index);

  /// Rule 4 — folding the shard registries reproduces `folded` exactly:
  /// every flattened metric of a fresh aggregate equals the run's
  /// aggregate, key for key. Trips when a metric was double-counted at
  /// the run level or recorded outside the shard fold.
  bool checkMetricFold(const obs::Registry& folded,
                       std::span<const obs::Registry* const> shards);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  void clear() { violations_.clear(); }

private:
  bool fail(std::string message);

  std::vector<std::string> violations_;
};

} // namespace v6t::fault
