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

std::vector<HeavyHitter> findHeavyHitters(const CaptureIndex& index,
                                          double thresholdPercent) {
  // Per-source packets, day bounds, ASN and session counts were all
  // aggregated at index build time — this is pure selection.
  const auto total = static_cast<double>(index.packets().size());
  std::vector<HeavyHitter> hitters;
  for (std::size_t i = 0; i < index.sourceCount(); ++i) {
    const CaptureIndex::SourceAggregates& agg = index.aggregatesOf(i);
    const double share =
        total == 0.0 ? 0.0 : 100.0 * static_cast<double>(agg.packets) / total;
    if (share <= thresholdPercent) continue;
    HeavyHitter h;
    h.source = index.source(i).addr;
    h.asn = agg.asn;
    h.packets = agg.packets;
    h.shareOfTelescope = share;
    h.sessions = index.sessionsOf(i).size();
    h.firstDay = agg.firstDay;
    h.lastDay = agg.lastDay;
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

HeavyHitterImpact heavyHitterImpact(const CaptureIndex& index,
                                    std::span<const HeavyHitter> hitters) {
  HeavyHitterImpact impact;
  for (std::size_t i = 0; i < index.sourceCount(); ++i) {
    const telescope::SourceKey& key = index.source(i);
    const unsigned maskBits = telescope::bits(key.agg);
    for (const HeavyHitter& h : hitters) {
      if (h.source.maskedTo(maskBits) == key.addr) {
        impact.packets += index.aggregatesOf(i).packets;
        impact.sessions += index.sessionsOf(i).size();
        break;
      }
    }
  }
  impact.packetShare = percent(impact.packets, index.packets().size());
  impact.sessionShare = percent(impact.sessions, index.sessions().size());
  return impact;
}

} // namespace v6t::analysis
