// v6t::telescope — scan sessions (§3.3).
//
// A scan session is a maximal run of packets from one source whose
// inter-arrival gaps stay below a timeout (the paper adopts one hour from
// Richter et al. / Zhao et al.). Sources can be viewed at three aggregation
// levels: the full /128 address, the /64 network, or the /48 prefix.
// Sessions — not packets — are the unit of all classification.
//
// One sessionizer applies that rule for every caller. It is a template
// over what an open session keeps: a Session (its packet-index run, what
// the in-memory analyses index) or a SessionSummary (O(1) counts, what
// the out-of-core stream folds). Both forms see the same opens, closes
// and stats packet for packet.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace v6t::telescope {

enum class SourceAgg : std::uint8_t { Addr128 = 128, Net64 = 64, Net48 = 48 };

[[nodiscard]] constexpr unsigned bits(SourceAgg agg) {
  return static_cast<unsigned>(agg);
}

/// A source identity at a chosen aggregation level (address is masked).
struct SourceKey {
  net::Ipv6Address addr;
  SourceAgg agg = SourceAgg::Addr128;

  [[nodiscard]] static SourceKey of(const net::Ipv6Address& src,
                                    SourceAgg agg) {
    return SourceKey{src.maskedTo(bits(agg)), agg};
  }

  auto operator<=>(const SourceKey&) const = default;
};

/// Lifecycle counters for the obs layer: every session is opened once
/// and closed exactly once — by the inter-packet timeout, by a declared
/// capture gap, or by the end-of-measurement flush in finish().
struct SessionStats {
  std::uint64_t opened = 0;
  std::uint64_t closedByTimeout = 0;
  std::uint64_t closedByGap = 0;
  std::uint64_t openAtFinish = 0;
};

/// A session as its packet-index run — the record the in-memory analyses
/// (CaptureIndex, taxonomy, fingerprints) read.
struct Session {
  SourceKey source;
  sim::SimTime start;
  sim::SimTime end;
  /// Indices into the capture's packet vector, in arrival order.
  std::vector<std::uint32_t> packetIdx;

  /// The sessionizer's hook: the packet at capture index `idx` joined.
  void add(const net::Packet& /*p*/, std::uint32_t idx) {
    packetIdx.push_back(idx);
  }

  [[nodiscard]] std::size_t packetCount() const { return packetIdx.size(); }
  [[nodiscard]] sim::Duration duration() const { return end - start; }
};

/// A session reduced to O(1) counts — the record the out-of-core
/// streaming fold reads, so an open session costs the same at any length.
/// Its fields are the per-source facts CaptureIndex derives from a
/// Session's packet run.
struct SessionSummary {
  SourceKey source;
  sim::SimTime start;
  sim::SimTime end;
  std::uint64_t packets = 0;
  std::uint64_t payloadPackets = 0;
  /// srcAsn of the session's first packet (the attribution CaptureIndex
  /// assigns a source from its first session).
  net::Asn firstAsn;

  /// The sessionizer's hook: packet `p` joined.
  void add(const net::Packet& p, std::uint32_t /*idx*/) {
    if (packets == 0) firstAsn = p.srcAsn;
    ++packets;
    if (p.hasPayload()) ++payloadPackets;
  }

  [[nodiscard]] sim::Duration duration() const { return end - start; }
};

/// The order finish() returns sessions in: by start, then source address.
struct SessionOrder {
  template <typename Record>
  bool operator()(const Record& a, const Record& b) const {
    if (a.start != b.start) return a.start < b.start;
    return a.source.addr < b.source.addr;
  }
};

/// Default timeout from the paper.
inline constexpr sim::Duration kSessionTimeout = sim::hours(1);

/// Canonical form of declared capture outages: sorted by start, with
/// overlapping/touching windows merged — what the sessionizer
/// binary-searches per packet.
[[nodiscard]] std::vector<std::pair<sim::SimTime, sim::SimTime>>
normalizeGapWindows(std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps);

/// True when the silent interval (lastSeen, now] overlaps one of the
/// normalized gap windows — the telescope was dark for part of the
/// silence, so session continuity cannot be attested.
[[nodiscard]] bool silenceSpansGap(
    std::span<const std::pair<sim::SimTime, sim::SimTime>> gaps,
    sim::SimTime lastSeen, sim::SimTime now);

/// Streaming sessionizer: feed packets in time order, harvest closed
/// sessions at any point, flush at end of measurement. `Record` is what
/// an open session keeps — a Session (its packet-index run) or a
/// SessionSummary (O(1) counts) — and the session rule, the stats and
/// the close order are the same for both.
template <typename Record>
class BasicSessionizer {
public:
  using Stats = SessionStats;

  explicit BasicSessionizer(SourceAgg agg,
                            sim::Duration timeout = kSessionTimeout)
      : agg_(agg), timeout_(timeout) {}

  /// Declare capture outages: an inter-packet interval that overlaps a
  /// [start, end) gap splits the session even when it is shorter than the
  /// timeout — the silence is the telescope's, not the scanner's, so
  /// counting it as one session would fabricate continuity across an
  /// outage (graceful degradation under fault injection). No gaps = the
  /// historical timeout-only behavior, bit for bit. Windows are
  /// normalized on entry — sorted, overlapping/touching windows merged —
  /// which preserves the overlap predicate exactly and lets the per-packet
  /// test binary-search instead of scanning every window.
  void setCaptureGaps(std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps) {
    gaps_ = normalizeGapWindows(std::move(gaps));
  }

  /// Offer the packet at index `idx` of the capture (time-ordered).
  void offer(const net::Packet& p, std::uint32_t idx);

  /// Move out the sessions closed since the last drain, in close order.
  /// Draining never changes what is produced, only when it is handed over.
  [[nodiscard]] std::vector<Record> drainClosed();

  /// Close every still-open session and return every session not yet
  /// drained, ordered by (start, source address).
  [[nodiscard]] std::vector<Record> finish();

  [[nodiscard]] SourceAgg aggregation() const { return agg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t openSessions() const { return open_.size(); }

private:
  SourceAgg agg_;
  sim::Duration timeout_;
  std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps_;
  /// An open session's `end` is its last packet's time.
  std::unordered_map<net::Ipv6Address, Record> open_;
  std::vector<Record> done_;
  Stats stats_;
};

extern template class BasicSessionizer<Session>;
extern template class BasicSessionizer<SessionSummary>;

/// The index form, whose sessions the in-memory analyses read.
using Sessionizer = BasicSessionizer<Session>;

/// Convenience: sessionize a whole capture in one call. When `statsOut`
/// is non-null the sessionizer's lifecycle counters are copied there.
/// `captureGaps` are declared outages for this capture's telescope (see
/// BasicSessionizer::setCaptureGaps).
[[nodiscard]] std::vector<Session> sessionize(
    std::span<const net::Packet> packets, SourceAgg agg,
    sim::Duration timeout = kSessionTimeout,
    SessionStats* statsOut = nullptr,
    std::vector<std::pair<sim::SimTime, sim::SimTime>> captureGaps = {});

/// Sessions grouped per source key (insertion order = first appearance).
struct SourceSessions {
  SourceKey source;
  std::vector<std::uint32_t> sessionIdx; // indices into the session vector
};

/// `distinctSourcesHint`, when nonzero, pre-sizes the output and the
/// source map (e.g. from a previous run over the same capture); zero falls
/// back to the session count as an upper bound.
[[nodiscard]] std::vector<SourceSessions> groupBySource(
    std::span<const Session> sessions, std::size_t distinctSourcesHint = 0);

} // namespace v6t::telescope

template <>
struct std::hash<v6t::telescope::SourceKey> {
  std::size_t operator()(const v6t::telescope::SourceKey& k) const noexcept {
    return std::hash<v6t::net::Ipv6Address>{}(k.addr) ^
           (static_cast<std::size_t>(k.agg) * 0x9e3779b97f4a7c15ULL);
  }
};
