#include "analysis/fingerprint.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "analysis/capture_index.hpp"
#include "analysis/dbscan.hpp"
#include "analysis/hoplimit.hpp"

namespace v6t::analysis {

namespace {

using Feature = std::vector<std::uint8_t>;

net::ScanTool toolFromRdns(std::string_view name) {
  for (const net::ToolSignature& sig : net::kToolSignatures) {
    if (sig.rdnsSuffix.empty()) continue;
    if (name.size() >= sig.rdnsSuffix.size() &&
        name.substr(name.size() - sig.rdnsSuffix.size()) == sig.rdnsSuffix) {
      return sig.tool;
    }
  }
  return net::ScanTool::Unknown;
}

} // namespace

FingerprintResult fingerprintSessions(const CaptureIndex& index,
                                      const net::RdnsRegistry* rdns,
                                      const FingerprintParams& params,
                                      unsigned threads,
                                      ParallelForStats* statsOut) {
  const std::span<const net::Packet> packets = index.packets();
  const std::span<const telescope::Session> sessions = index.sessions();
  FingerprintResult result;
  result.sessionTool.assign(sessions.size(), net::ScanTool::Unknown);

  // --- Step 1: collect distinct payload features across sessions. The
  // payload memo replaces the per-packet scan: the feature comes from the
  // session's memoized first payload packet, the packet tally from the
  // memoized count. Session order (and thus feature insertion order, and
  // thus DBSCAN input order) is unchanged.
  index.noteRescanAvoided();
  std::unordered_map<std::string, std::size_t> featureIndex; // key -> point
  std::vector<Feature> points;
  std::vector<std::vector<std::uint32_t>> featureSessions; // point -> sessions

  for (std::uint32_t si = 0; si < sessions.size(); ++si) {
    result.payloadPackets += index.payloadPacketsOf(si);
    const std::uint32_t firstIdx = index.firstPayloadOf(si);
    if (firstIdx == CaptureIndex::kNoPayload) continue;
    ++result.payloadSessions;
    const net::Packet& p = packets[firstIdx];
    Feature f(params.featureBytes, 0);
    const std::size_t n = std::min(params.featureBytes, p.payload.size());
    std::copy_n(p.payload.begin(), n, f.begin());
    std::string key(f.begin(), f.end());
    auto [it, fresh] = featureIndex.try_emplace(key, points.size());
    if (fresh) {
      points.push_back(std::move(f));
      featureSessions.emplace_back();
    }
    featureSessions[it->second].push_back(si);
  }

  // --- Step 2: DBSCAN over the (capped) feature set. The O(n^2)
  // neighborhood queries dominate this stage, and each point's neighbor
  // list is a pure function of that point — so the adjacency is
  // precomputed across workers (each row in ascending order, exactly what
  // the lazy serial scan yields) and the serial cluster expansion
  // consumes identical lists. ---
  const std::size_t n = std::min(points.size(), params.maxPoints);
  std::vector<net::ScanTool> pointTool(points.size(), net::ScanTool::Unknown);
  if (n > 0) {
    auto distance = [&](std::size_t a, std::size_t b) {
      const Feature& fa = points[a];
      const Feature& fb = points[b];
      double d = 0.0;
      for (std::size_t i = 0; i < fa.size(); ++i) {
        if (fa[i] != fb[i]) d += 1.0;
      }
      return d / static_cast<double>(fa.size());
    };
    std::vector<std::vector<std::size_t>> adjacency(n);
    const std::vector<std::uint64_t> rowCosts(n,
                                              static_cast<std::uint64_t>(n));
    ParallelForStats adjStats = parallelForCosted(
        rowCosts, threads,
        [&](unsigned, std::size_t p) {
          for (std::size_t q = 0; q < n; ++q) {
            if (distance(p, q) <= params.epsilon) adjacency[p].push_back(q);
          }
        });
    if (statsOut != nullptr) statsOut->absorb(adjStats);
    const DbscanResult clusters = dbscanWithNeighbors(
        n, params.minPts,
        [&](std::size_t p) -> const std::vector<std::size_t>& {
          return adjacency[p];
        });
    result.clusterCount = clusters.clusterCount;

    // Label each cluster by the first member with a known signature; noise
    // points are matched individually.
    std::vector<net::ScanTool> clusterTool(
        static_cast<std::size_t>(clusters.clusterCount),
        net::ScanTool::Unknown);
    for (std::size_t i = 0; i < n; ++i) {
      const net::ScanTool direct = net::matchToolSignature(points[i]);
      if (clusters.label[i] == kDbscanNoise) {
        pointTool[i] = direct;
      } else if (direct != net::ScanTool::Unknown) {
        clusterTool[static_cast<std::size_t>(clusters.label[i])] = direct;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (clusters.label[i] != kDbscanNoise) {
        pointTool[i] = clusterTool[static_cast<std::size_t>(clusters.label[i])];
      }
    }
  }
  // Points beyond the cap: signature match only.
  for (std::size_t i = n; i < points.size(); ++i) {
    pointTool[i] = net::matchToolSignature(points[i]);
  }

  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::uint32_t si : featureSessions[i]) {
      result.sessionTool[si] = pointTool[i];
    }
  }

  // --- Step 3: hop-limit fallback — topology probing leaves a signature
  // even without payloads (incrementing small hop limits). Each check is
  // a pure per-session predicate into its own flag slot; the label + tally
  // fold runs serially in session order. ---
  {
    std::vector<std::uint32_t> candidates;
    std::vector<std::uint64_t> hopCosts;
    for (std::uint32_t si = 0; si < sessions.size(); ++si) {
      if (result.sessionTool[si] != net::ScanTool::Unknown) continue;
      candidates.push_back(si);
      hopCosts.push_back(index.sessionPacketCountOf(si));
    }
    std::vector<std::uint8_t> isTraceroute(candidates.size(), 0);
    ParallelForStats hopStats = parallelForCosted(
        hopCosts, threads,
        [&](unsigned, std::size_t i) {
          isTraceroute[i] =
              profileHopLimits(packets, sessions[candidates[i]])
                      .looksLikeTraceroute()
                  ? 1
                  : 0;
        });
    if (statsOut != nullptr) statsOut->absorb(hopStats);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (isTraceroute[i] == 0) continue;
      result.sessionTool[candidates[i]] = net::ScanTool::Traceroute;
      ++result.hopLimitAttributions;
    }
  }

  // --- Step 4: rDNS fallback for payloadless / unknown sessions. ---
  if (rdns != nullptr) {
    for (std::uint32_t si = 0; si < sessions.size(); ++si) {
      if (result.sessionTool[si] != net::ScanTool::Unknown) continue;
      // rDNS is keyed by the concrete /128 of the first packet.
      const net::Packet& p = packets[sessions[si].packetIdx.front()];
      if (auto name = rdns->lookup(p.src)) {
        result.sessionTool[si] = toolFromRdns(*name);
      }
    }
  }

  // --- Aggregate Table 7. The payload memo answers "does this session
  // carry any payload" without a second packet walk. ---
  index.noteRescanAvoided();
  std::map<net::ScanTool, std::unordered_set<net::Ipv6Address>> toolSources;
  std::unordered_set<net::Ipv6Address> payloadSources;
  for (std::uint32_t si = 0; si < sessions.size(); ++si) {
    const telescope::Session& s = sessions[si];
    const net::ScanTool tool = result.sessionTool[si];
    result.byTool[tool].sessions += 1;
    toolSources[tool].insert(s.source.addr);
    if (index.payloadPacketsOf(si) > 0) payloadSources.insert(s.source.addr);
  }
  for (auto& [tool, count] : result.byTool) {
    count.scanners = toolSources[tool].size();
  }
  result.payloadSources = payloadSources.size();
  return result;
}

FingerprintResult fingerprintSessions(
    std::span<const net::Packet> packets,
    std::span<const telescope::Session> sessions,
    const net::RdnsRegistry* rdns, const FingerprintParams& params) {
  const CaptureIndex index{packets, sessions};
  return fingerprintSessions(index, rdns, params);
}

} // namespace v6t::analysis
