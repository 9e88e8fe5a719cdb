#include "analysis/heavy_hitter.hpp"

#include <algorithm>
#include <unordered_set>

#include "analysis/capture_index.hpp"
#include "analysis/stats.hpp"

namespace v6t::analysis {

std::vector<HeavyHitter> findHeavyHitters(std::span<const net::Packet> packets,
                                          double thresholdPercent) {
  // One sessionization pass feeds both the hitter aggregates and their
  // session counts; the pipeline path skips even this by passing its
  // already-shared index to the overload below.
  const std::vector<telescope::Session> sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Addr128);
  const CaptureIndex index{packets, sessions};
  return findHeavyHitters(index, thresholdPercent);
}

std::vector<HeavyHitter> findHeavyHitters(
    std::span<const SourceAggregate> sources, std::uint64_t totalPackets,
    double thresholdPercent) {
  const auto total = static_cast<double>(totalPackets);
  std::vector<HeavyHitter> hitters;
  for (const SourceAggregate& row : sources) {
    const double share =
        total == 0.0 ? 0.0 : 100.0 * static_cast<double>(row.packets) / total;
    if (share <= thresholdPercent) continue;
    HeavyHitter h;
    h.source = row.source.addr;
    h.asn = row.asn;
    h.packets = row.packets;
    h.shareOfTelescope = share;
    h.sessions = row.sessions;
    h.firstDay = row.firstDay;
    h.lastDay = row.lastDay;
    hitters.push_back(h);
  }
  // stable_sort over canonical source order makes ties deterministic (the
  // unordered_map walk it replaces was not).
  std::stable_sort(hitters.begin(), hitters.end(),
                   [](const HeavyHitter& a, const HeavyHitter& b) {
                     return a.packets > b.packets;
                   });
  return hitters;
}

std::vector<HeavyHitter> findHeavyHitters(const CaptureIndex& index,
                                          double thresholdPercent) {
  return findHeavyHitters(index.aggregates(), index.packets().size(),
                          thresholdPercent);
}

HeavyHitterImpact heavyHitterImpact(
    std::span<const net::Packet> packets,
    std::span<const telescope::Session> sessions,
    std::span<const HeavyHitter> hitters) {
  std::unordered_set<net::Ipv6Address> hitterSet;
  for (const HeavyHitter& h : hitters) hitterSet.insert(h.source);

  HeavyHitterImpact impact;
  for (const net::Packet& p : packets) {
    if (hitterSet.contains(p.src)) ++impact.packets;
  }
  for (const telescope::Session& s : sessions) {
    // A session belongs to a heavy hitter if its (possibly aggregated)
    // source covers one of the hitter addresses.
    const unsigned maskBits = telescope::bits(s.source.agg);
    for (const net::Ipv6Address& h : hitterSet) {
      if (h.maskedTo(maskBits) == s.source.addr) {
        ++impact.sessions;
        break;
      }
    }
  }
  impact.packetShare = percent(impact.packets, packets.size());
  impact.sessionShare = percent(impact.sessions, sessions.size());
  return impact;
}

HeavyHitterImpact heavyHitterImpact(std::span<const SourceAggregate> sources,
                                    std::uint64_t totalPackets,
                                    std::uint64_t totalSessions,
                                    std::span<const HeavyHitter> hitters) {
  HeavyHitterImpact impact;
  for (const SourceAggregate& row : sources) {
    const unsigned maskBits = telescope::bits(row.source.agg);
    for (const HeavyHitter& h : hitters) {
      if (h.source.maskedTo(maskBits) == row.source.addr) {
        impact.packets += row.packets;
        impact.sessions += row.sessions;
        break;
      }
    }
  }
  impact.packetShare = percent(impact.packets, totalPackets);
  impact.sessionShare = percent(impact.sessions, totalSessions);
  return impact;
}

HeavyHitterImpact heavyHitterImpact(const CaptureIndex& index,
                                    std::span<const HeavyHitter> hitters) {
  return heavyHitterImpact(index.aggregates(), index.packets().size(),
                           index.sessions().size(), hitters);
}

} // namespace v6t::analysis
