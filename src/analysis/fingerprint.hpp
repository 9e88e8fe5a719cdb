// v6t::analysis — scan-tool attribution (§5.4, Table 7).
//
// Replicates the paper's two-step method: (i) cluster payload byte
// representations with DBSCAN and match each cluster against public tool
// fingerprints, (ii) consult reverse DNS of the scan sources. Sessions
// with neither payload nor rDNS stay Unknown.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "analysis/parallel.hpp"
#include "net/asn.hpp"
#include "net/packet.hpp"
#include "net/tool_signatures.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {

struct FingerprintParams {
  /// Bytes of payload prefix used as the clustering feature.
  std::size_t featureBytes = 16;
  /// DBSCAN: mean per-byte distance threshold and density minimum.
  double epsilon = 0.15;
  std::size_t minPts = 2;
  /// Cap on distinct feature points clustered (random payloads inflate the
  /// point set; beyond the cap points are matched by signature only).
  std::size_t maxPoints = 4096;
};

struct ToolCount {
  std::uint64_t scanners = 0; // distinct sources
  std::uint64_t sessions = 0;
};

struct FingerprintResult {
  /// Tool label per session (parallel to the session span).
  std::vector<net::ScanTool> sessionTool;
  /// Sessions labelled Traceroute purely from their hop-limit pattern.
  std::uint64_t hopLimitAttributions = 0;
  /// Table 7 aggregation.
  std::map<net::ScanTool, ToolCount> byTool;
  /// Number of payload clusters DBSCAN found (diagnostics).
  int clusterCount = 0;
  std::uint64_t payloadPackets = 0;
  std::uint64_t payloadSessions = 0;
  std::uint64_t payloadSources = 0;
};

class CaptureIndex;

/// Fingerprint over a pre-built shared index: the payload memo (first
/// payload packet + payload packet count per session) replaces the two
/// payload scans the packet-span overload used to make. Results are
/// bitwise-identical to the packet-span overload.
///
/// `threads > 1` parallelizes the two O(heavy) inner loops without
/// changing any result bit: the DBSCAN neighborhood lists (each a pure
/// function of one point, consumed by the serial cluster expansion in
/// the same order the lazy serial scan would produce) and the hop-limit
/// traceroute check (per-session flags folded serially in session
/// order). `statsOut`, when non-null, accumulates the dispatch stats.
[[nodiscard]] FingerprintResult fingerprintSessions(
    const CaptureIndex& index, const net::RdnsRegistry* rdns = nullptr,
    const FingerprintParams& params = {}, unsigned threads = 1,
    ParallelForStats* statsOut = nullptr);

/// Thin wrapper: builds a CaptureIndex over (packets, sessions) and
/// delegates to the index overload.
[[nodiscard]] FingerprintResult fingerprintSessions(
    std::span<const net::Packet> packets,
    std::span<const telescope::Session> sessions,
    const net::RdnsRegistry* rdns = nullptr,
    const FingerprintParams& params = {});

} // namespace v6t::analysis
