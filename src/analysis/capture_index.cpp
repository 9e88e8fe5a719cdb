#include "analysis/capture_index.hpp"

namespace v6t::analysis {

CaptureIndex::CaptureIndex(std::span<const net::Packet> packets,
                           std::span<const telescope::Session> sessions)
    : packets_(packets), sessions_(sessions) {
  // Source grouping comes straight from groupBySource — the same
  // first-appearance order every existing consumer observes — instead of
  // rebuilding the source map here.
  std::vector<telescope::SourceSessions> bySource =
      telescope::groupBySource(sessions);

  sources_.reserve(bySource.size());
  sourceOffsets_.reserve(bySource.size() + 1);
  sessionIdx_.reserve(sessions.size());
  sessionStarts_.reserve(sessions.size());
  aggregates_.reserve(bySource.size());

  std::size_t totalPackets = 0;
  for (const telescope::Session& s : sessions) totalPackets += s.packetCount();
  targetOffsets_.reserve(sessions.size() + 1);
  sessionFirstPayload_.assign(sessions.size(), kNoPayload);
  sessionPayloadPackets_.assign(sessions.size(), 0);
  targetHi_.reserve(totalPackets);
  targetLo_.reserve(totalPackets);
  subnetWords_.reserve((totalPackets + 1) / 2 + sessions.size());
  subnetWordOffsets_.reserve(sessions.size() + 1);

  // One pass over every session's packet run: target lanes, payload memo
  // and subnet words (DESIGN.md §16). The lo64 lane doubles as the
  // session's packed IID bit sequence; the subnet bits (address bits
  // 32..63, i.e. the low half of hi64) pack two addresses per word,
  // MSB-first, zero-padded when a session has an odd packet count.
  targetOffsets_.push_back(0);
  subnetWordOffsets_.push_back(0);
  for (std::uint32_t si = 0; si < sessions.size(); ++si) {
    const telescope::Session& s = sessions[si];
    const std::size_t first = targetLo_.size();
    for (std::uint32_t idx : s.packetIdx) {
      const net::Packet& p = packets[idx];
      targetHi_.push_back(p.dst.hi64());
      targetLo_.push_back(p.dst.lo64());
      if (p.hasPayload()) {
        if (sessionFirstPayload_[si] == kNoPayload) {
          sessionFirstPayload_[si] = idx;
        }
        ++sessionPayloadPackets_[si];
      }
    }
    targetOffsets_.push_back(targetLo_.size());
    const std::size_t count = targetLo_.size() - first;
    for (std::size_t i = 0; i < count; i += 2) {
      const std::uint64_t a = targetHi_[first + i] & 0xffffffffULL;
      const std::uint64_t b =
          i + 1 < count ? targetHi_[first + i + 1] & 0xffffffffULL : 0;
      subnetWords_.push_back((a << 32) | b);
    }
    subnetWordOffsets_.push_back(subnetWords_.size());
  }

  // CSR over the source grouping plus the per-source aggregates. A
  // source's sessions are disjoint in time and ordered by start, so its
  // first session's first packet and last session's last packet bound its
  // activity.
  sourceOffsets_.push_back(0);
  for (telescope::SourceSessions& src : bySource) {
    sources_.push_back(src.source);
    SourceAggregates agg;
    for (std::uint32_t si : src.sessionIdx) {
      const telescope::Session& s = sessions[si];
      sessionIdx_.push_back(si);
      sessionStarts_.push_back(s.start);
      agg.packets += s.packetCount();
    }
    const telescope::Session& first = sessions[src.sessionIdx.front()];
    const telescope::Session& last = sessions[src.sessionIdx.back()];
    agg.firstDay = first.start.dayIndex();
    agg.lastDay = last.end.dayIndex();
    agg.asn = packets[first.packetIdx.front()].srcAsn;
    aggregates_.push_back(agg);
    sourceOffsets_.push_back(sessionIdx_.size());
  }
}

} // namespace v6t::analysis
