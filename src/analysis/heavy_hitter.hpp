// v6t::analysis — heavy-hitter detection (§4.2).
//
// A heavy hitter is an individual /128 source contributing more than a
// threshold share (paper: 10%) of one telescope's packets. The paper keeps
// heavy hitters in the dataset because session-centric statistics are
// insensitive to them (73% of packets, 0.04% of sessions).
//
// The selection and the impact each have one body, over per-source rows
// (SourceAggregate) plus the capture's totals. CaptureIndex builds the
// rows from the in-memory session table, the streaming fold from session
// summaries; the CaptureIndex overloads below forward to the row form.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {

class CaptureIndex;

/// §4.2: the paper's heavy-hitter threshold, percent of one telescope's
/// packets.
inline constexpr double kHeavyHitterThresholdPercent = 10.0;

struct HeavyHitter {
  net::Ipv6Address source;
  net::Asn asn;
  std::uint64_t packets = 0;
  double shareOfTelescope = 0.0; // percent
  std::uint64_t sessions = 0;
  std::int64_t firstDay = 0;
  std::int64_t lastDay = 0;
};

/// One source's capture-level aggregates, in canonical (first-appearance)
/// source order: what heavy-hitter selection reads, and what the streamed
/// and the in-memory analyses both report per source.
struct SourceAggregate {
  telescope::SourceKey source;
  std::uint64_t packets = 0;
  std::uint64_t sessions = 0;
  std::uint64_t payloadPackets = 0;
  /// Day of the first session's start and of the last session's end.
  std::int64_t firstDay = 0;
  std::int64_t lastDay = 0;
  /// Origin ASN of the source's first packet.
  net::Asn asn;
};

/// Select the sources whose share of `totalPackets` exceeds
/// `thresholdPercent`, ordered by packet count descending, ties broken by
/// row order. The share is 100 * packets / totalPackets.
[[nodiscard]] std::vector<HeavyHitter> findHeavyHitters(
    std::span<const SourceAggregate> sources, std::uint64_t totalPackets,
    double thresholdPercent = kHeavyHitterThresholdPercent);

/// Identify heavy hitters in one telescope's capture. Sessionizes the
/// capture once (at /128, the granularity heavy hitters are defined on),
/// builds a CaptureIndex over it, and delegates to the index overload.
[[nodiscard]] std::vector<HeavyHitter> findHeavyHitters(
    std::span<const net::Packet> packets,
    double thresholdPercent = kHeavyHitterThresholdPercent);

/// Identify heavy hitters from a shared index whose sessions were built at
/// Addr128 aggregation: the row form over the index's per-source rows and
/// its packet count — no packet walk, no internal re-sessionization.
[[nodiscard]] std::vector<HeavyHitter> findHeavyHitters(
    const CaptureIndex& index,
    double thresholdPercent = kHeavyHitterThresholdPercent);

/// Packets/sessions contributed by a set of heavy hitters across a capture,
/// for "w/o heavy hitter" table rows.
struct HeavyHitterImpact {
  std::uint64_t packets = 0;
  std::uint64_t sessions = 0;
  double packetShare = 0.0; // percent of all packets
  double sessionShare = 0.0; // percent of all sessions
};

[[nodiscard]] HeavyHitterImpact heavyHitterImpact(
    std::span<const net::Packet> packets,
    std::span<const telescope::Session> sessions,
    std::span<const HeavyHitter> hitters);

/// Impact from per-source rows: the packets and sessions of every row
/// whose source covers a hitter, as shares of the capture's totals. Exact
/// when the rows are Addr128 (a source IS a /128, so its packet count
/// equals the per-packet tally); at coarser aggregation the count covers
/// the whole aggregated source.
[[nodiscard]] HeavyHitterImpact heavyHitterImpact(
    std::span<const SourceAggregate> sources, std::uint64_t totalPackets,
    std::uint64_t totalSessions, std::span<const HeavyHitter> hitters);

/// The row form over the shared index's per-source rows and totals.
[[nodiscard]] HeavyHitterImpact heavyHitterImpact(
    const CaptureIndex& index, std::span<const HeavyHitter> hitters);

} // namespace v6t::analysis
