#include "fault/invariants.hpp"

#include <sstream>
#include <tuple>

#include "sim/time.hpp"

namespace v6t::fault {

namespace {

std::string timeStr(sim::SimTime t) {
  return std::to_string((t - sim::kEpoch).millis()) + "ms";
}

} // namespace

bool InvariantChecker::fail(std::string message) {
  violations_.push_back(std::move(message));
  return false;
}

bool InvariantChecker::checkSessionsRespectGaps(
    std::span<const telescope::Session> sessions,
    std::span<const net::Packet> packets,
    std::span<const std::pair<sim::SimTime, sim::SimTime>> gapWindows) {
  bool good = true;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const telescope::Session& session = sessions[s];
    for (std::size_t i = 1; i < session.packetIdx.size(); ++i) {
      const std::uint32_t prevIdx = session.packetIdx[i - 1];
      const std::uint32_t curIdx = session.packetIdx[i];
      if (prevIdx >= packets.size() || curIdx >= packets.size()) {
        good = fail("session " + std::to_string(s) +
                    " references packet index beyond the capture");
        continue;
      }
      const sim::SimTime prev = packets[prevIdx].ts;
      const sim::SimTime cur = packets[curIdx].ts;
      for (const auto& [gapStart, gapEnd] : gapWindows) {
        // Straddle: the source was last heard before the outage began and
        // next heard at or after it ended — the silence covered the whole
        // window, so a gap-aware sessionizer must have split here.
        if (prev < gapStart && cur >= gapEnd) {
          std::ostringstream msg;
          msg << "session " << s << " spans capture gap ["
              << timeStr(gapStart) << ", " << timeStr(gapEnd)
              << "): packets at " << timeStr(prev) << " and "
              << timeStr(cur) << " belong to one session";
          good = fail(msg.str());
        }
      }
    }
  }
  return good;
}

bool InvariantChecker::checkRibAgainstLinearScan(
    const bgp::Rib& rib,
    std::span<const std::pair<net::Prefix, net::Asn>> routes,
    std::span<const net::Ipv6Address> probes) {
  bool good = true;
  for (const net::Ipv6Address& probe : probes) {
    // The oracle: scan every route linearly, keep the longest match.
    const std::pair<net::Prefix, net::Asn>* best = nullptr;
    for (const auto& route : routes) {
      if (!route.first.contains(probe)) continue;
      if (best == nullptr || route.first.length() > best->first.length()) {
        best = &route;
      }
    }
    const auto got = rib.lookup(probe);
    const bool match =
        best == nullptr
            ? !got.has_value()
            : got.has_value() && got->first == best->first &&
                  got->second.origin == best->second;
    if (!match) {
      std::ostringstream msg;
      msg << "RIB LPM disagrees with linear scan for " << probe.toString()
          << ": rib="
          << (got ? got->first.toString() + " via AS" +
                        std::to_string(got->second.origin.value())
                  : std::string{"no route"})
          << " oracle="
          << (best != nullptr ? best->first.toString() + " via AS" +
                                    std::to_string(best->second.value())
                              : std::string{"no route"});
      good = fail(msg.str());
    }
  }
  return good;
}

bool InvariantChecker::checkCanonicalOrder(
    const telescope::CaptureStore& capture) {
  const std::vector<net::Packet>& packets = capture.packets();
  bool good = true;
  for (std::size_t i = 1; i < packets.size(); ++i) {
    good &= checkCanonicalStep(packets[i - 1], packets[i], i);
  }
  return good;
}

bool InvariantChecker::checkCanonicalStep(const net::Packet& prev,
                                          const net::Packet& next,
                                          std::uint64_t index) {
  if (std::tuple{next.ts, next.originId, next.originSeq} >=
      std::tuple{prev.ts, prev.originId, prev.originSeq}) {
    return true;
  }
  std::ostringstream msg;
  msg << "capture not in canonical (ts, originId, originSeq) order at "
      << "index " << index << ": (" << timeStr(prev.ts) << ", "
      << prev.originId << ", " << prev.originSeq << ") > ("
      << timeStr(next.ts) << ", " << next.originId << ", " << next.originSeq
      << ")";
  return fail(msg.str());
}

bool InvariantChecker::checkMetricFold(
    const obs::Registry& folded,
    std::span<const obs::Registry* const> shards) {
  obs::Registry refold;
  for (const obs::Registry* shard : shards) {
    if (shard != nullptr) refold.aggregateFrom(*shard);
  }
  const auto want = refold.flatten();
  const auto got = folded.flatten();
  bool good = true;
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    if (it == got.end()) {
      good = fail("metric fold lost key '" + name + "'");
    } else if (it->second != value) {
      std::ostringstream msg;
      msg << "metric fold mismatch for '" << name << "': folded "
          << it->second << " != shard sum " << value;
      good = fail(msg.str());
    }
  }
  for (const auto& [name, value] : got) {
    if (!want.contains(name)) {
      good = fail("metric fold invented key '" + name + "'");
    }
  }
  return good;
}

} // namespace v6t::fault
