// v6t::analysis — the shared capture index.
//
// Every downstream analysis (taxonomy, fingerprinting, the NIST battery,
// heavy hitters) used to walk the full merged packet vector on its own:
// targets were re-extracted per axis, the capture re-sessionized for the
// heavy-hitter session counts, payloads re-scanned for fingerprints. The
// CaptureIndex is built in ONE pass over (packets, sessions) and memoizes
// everything those consumers need, CSR-style:
//
//   sources          canonical source order (first appearance in the
//                    session vector — identical to groupBySource)
//   source→sessions  per-source session-index runs (CSR offsets)
//   session→targets  per-session destination addresses, extracted once
//   session starts   per-source start-time runs for the period detector
//   payload memo     per-session first-payload packet + payload counts
//   per-source aggregates  packets, first/last day, origin ASN
//
// Besides the row-major memos the index keeps a columnar (SoA) view of the
// sessionized capture (DESIGN.md §16): per-packet timestamp / source-lane /
// target-lane / port / payload-length columns in session-major order, plus
// bit-packed NIST bit columns (an address's 64 IID bits ARE its lo64 lane
// word; subnet bits pack two addresses per word). The word-level kernels in
// nist.hpp / addr_class.hpp run straight over these columns; the exact
// period detector (autocorr.hpp) reads only the session-start runs.
//
// The index is immutable after build and shared read-only by all pipeline
// workers; the only mutable state is a pair of relaxed atomic hit counters
// that measure how many full-capture re-scans the memoization replaced
// (exported as `analysis.index.*` in the obs snapshot). The counters — and
// their cache-line traffic — compile out under -DV6T_INDEX_STATS=OFF;
// results are identical either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/nist.hpp"
#include "net/packet.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {

/// True when the index hit counters are compiled in (V6T_INDEX_STATS=ON,
/// the default). OFF builds drop the atomics entirely; every accessor
/// below still returns the same spans/columns.
#if !defined(V6T_INDEX_STATS_DISABLED)
inline constexpr bool kIndexStatsCompiledIn = true;
#else
inline constexpr bool kIndexStatsCompiledIn = false;
#endif

class CaptureIndex {
public:
  /// Build from a capture and its session table (which indexes into
  /// `packets`). Both spans must outlive the index — it stores views, not
  /// copies, of the packet/session data.
  CaptureIndex(std::span<const net::Packet> packets,
               std::span<const telescope::Session> sessions);

  [[nodiscard]] std::span<const net::Packet> packets() const {
    return packets_;
  }
  [[nodiscard]] std::span<const telescope::Session> sessions() const {
    return sessions_;
  }

  // --- canonical source order -------------------------------------------

  [[nodiscard]] std::size_t sourceCount() const { return sources_.size(); }
  [[nodiscard]] const telescope::SourceKey& source(std::size_t i) const {
    return sources_[i];
  }
  /// Session indices of source `i`, in session-vector order.
  [[nodiscard]] std::span<const std::uint32_t> sessionsOf(
      std::size_t i) const {
    return {sessionIdx_.data() + sourceOffsets_[i],
            sourceOffsets_[i + 1] - sourceOffsets_[i]};
  }
  /// Session start times of source `i`, parallel to sessionsOf(i) — the
  /// period detector's input, gathered once at build time.
  [[nodiscard]] std::span<const sim::SimTime> sessionStartsOf(
      std::size_t i) const {
    return {sessionStarts_.data() + sourceOffsets_[i],
            sourceOffsets_[i + 1] - sourceOffsets_[i]};
  }

  // --- per-session memos -------------------------------------------------

  /// Destination addresses of session `s`, in arrival order — extracted
  /// once at build time instead of once per analysis axis. Serving a span
  /// counts as one avoided packet-vector walk (hit counter).
  [[nodiscard]] std::span<const net::Ipv6Address> targetsOf(
      std::uint32_t s) const {
    countSpanServed();
    return {targets_.data() + targetOffsets_[s],
            targetOffsets_[s + 1] - targetOffsets_[s]};
  }

  // --- columnar view (DESIGN.md §16) ------------------------------------

  /// One session's packets as parallel columns, arrival order. `hi`/`lo`
  /// are the target address lanes (lo == the IID word), `srcHi`/`srcLo`
  /// the source lanes; every span has sessionPacketCountOf(s) elements.
  struct TargetColumns {
    std::span<const std::uint64_t> hi;
    std::span<const std::uint64_t> lo;
    std::span<const sim::SimTime> ts;
    std::span<const std::uint64_t> srcHi;
    std::span<const std::uint64_t> srcLo;
    std::span<const std::uint16_t> port;
    std::span<const std::uint16_t> payloadLen;
  };
  [[nodiscard]] TargetColumns columnsOf(std::uint32_t s) const {
    countSpanServed();
    const std::size_t off = targetOffsets_[s];
    const std::size_t n = targetOffsets_[s + 1] - off;
    return {{targetHi_.data() + off, n},  {targetLo_.data() + off, n},
            {packetTs_.data() + off, n},  {srcHi_.data() + off, n},
            {srcLo_.data() + off, n},     {dstPort_.data() + off, n},
            {payloadLen_.data() + off, n}};
  }

  /// Session `s`'s IID bit sequence, bit-packed: identical bits to
  /// bitsFromAddresses(targetsOf(s), 64, 64) — the lo64 lane IS the
  /// MSB-first packed sequence, so this is a zero-copy view.
  [[nodiscard]] PackedBits iidBitsOf(std::uint32_t s) const {
    countSpanServed();
    const std::size_t off = targetOffsets_[s];
    const std::size_t n = targetOffsets_[s + 1] - off;
    return {{targetLo_.data() + off, n}, n * 64};
  }
  /// Session `s`'s subnet bit sequence (address bits 32..63), bit-packed
  /// two addresses per word: identical bits to
  /// bitsFromAddresses(targetsOf(s), 32, 32).
  [[nodiscard]] PackedBits subnetBitsOf(std::uint32_t s) const {
    countSpanServed();
    const std::size_t off = subnetWordOffsets_[s];
    const std::size_t words = subnetWordOffsets_[s + 1] - off;
    const std::size_t n = targetOffsets_[s + 1] - targetOffsets_[s];
    return {{subnetWords_.data() + off, words}, n * 32};
  }
  /// Packet index of session `s`'s first payload-carrying packet, or
  /// kNoPayload if the session carries none.
  static constexpr std::uint32_t kNoPayload = 0xffffffffu;
  [[nodiscard]] std::uint32_t firstPayloadOf(std::uint32_t s) const {
    return sessionFirstPayload_[s];
  }
  [[nodiscard]] std::uint32_t payloadPacketsOf(std::uint32_t s) const {
    return sessionPayloadPackets_[s];
  }

  // --- per-source aggregates (heavy hitters) ----------------------------

  struct SourceAggregates {
    std::uint64_t packets = 0;
    std::int64_t firstDay = 0;
    std::int64_t lastDay = 0;
    net::Asn asn;
  };
  [[nodiscard]] const SourceAggregates& aggregatesOf(std::size_t i) const {
    return aggregates_[i];
  }
  /// Total packets covered by the session table (== packets().size() when
  /// the sessions partition the capture, as Addr128 sessions do).
  [[nodiscard]] std::uint64_t sessionizedPackets() const {
    return targets_.size();
  }

  // --- scheduler cost estimates (DESIGN.md §13) -------------------------

  [[nodiscard]] std::size_t sessionCountOf(std::size_t i) const {
    return sourceOffsets_[i + 1] - sourceOffsets_[i];
  }
  /// Packets (== targets) of session `s`, without touching the hit
  /// counters — a cost probe, not a consumer read.
  [[nodiscard]] std::uint64_t sessionPacketCountOf(std::uint32_t s) const {
    return targetOffsets_[s + 1] - targetOffsets_[s];
  }
  /// Estimated taxonomy cost of source `i`, in scheduler cost units
  /// (~packets touched): the per-session address classification walks
  /// every target once, and each session adds a fixed overhead for the
  /// temporal/network axes.
  [[nodiscard]] std::uint64_t classifyCostOf(std::size_t i) const {
    return aggregates_[i].packets +
           32 * static_cast<std::uint64_t>(sessionCountOf(i));
  }
  /// Estimated NIST battery cost of session `s`: 64 IID bits + 32 subnet
  /// bits extracted per packet, with the spectral FFT adding roughly as
  /// much again.
  [[nodiscard]] std::uint64_t nistCostOf(std::uint32_t s) const {
    return 96 * sessionPacketCountOf(s);
  }

  // --- instrumentation ---------------------------------------------------

  /// A consumer that would previously have walked the whole packet vector
  /// (or re-sessionized it) calls this once instead; the counter lands in
  /// the obs snapshot as `analysis.index.rescans_avoided_total`. No-op in
  /// V6T_INDEX_STATS=OFF builds.
  void noteRescanAvoided() const {
#if !defined(V6T_INDEX_STATS_DISABLED)
    rescansAvoided_.fetch_add(1, std::memory_order_relaxed);
#endif
  }
  /// Both getters read 0 in V6T_INDEX_STATS=OFF builds.
  [[nodiscard]] std::uint64_t rescansAvoided() const {
#if !defined(V6T_INDEX_STATS_DISABLED)
    return rescansAvoided_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }
  [[nodiscard]] std::uint64_t targetSpansServed() const {
#if !defined(V6T_INDEX_STATS_DISABLED)
    return targetSpansServed_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

private:
  void countSpanServed() const {
#if !defined(V6T_INDEX_STATS_DISABLED)
    targetSpansServed_.fetch_add(1, std::memory_order_relaxed);
#endif
  }

  std::span<const net::Packet> packets_;
  std::span<const telescope::Session> sessions_;

  std::vector<telescope::SourceKey> sources_;
  std::vector<std::size_t> sourceOffsets_; // size sourceCount()+1
  std::vector<std::uint32_t> sessionIdx_; // grouped by source
  std::vector<sim::SimTime> sessionStarts_; // parallel to sessionIdx_

  std::vector<std::size_t> targetOffsets_; // size sessions.size()+1
  std::vector<net::Ipv6Address> targets_; // session-major, arrival order
  std::vector<std::uint32_t> sessionFirstPayload_;
  std::vector<std::uint32_t> sessionPayloadPackets_;

  // Columnar view, all session-major and parallel to targets_ (except the
  // subnet words, which have their own per-session word offsets).
  std::vector<std::uint64_t> targetHi_;
  std::vector<std::uint64_t> targetLo_; // == the packed IID bit column
  std::vector<sim::SimTime> packetTs_;
  std::vector<std::uint64_t> srcHi_;
  std::vector<std::uint64_t> srcLo_;
  std::vector<std::uint16_t> dstPort_;
  std::vector<std::uint16_t> payloadLen_;
  std::vector<std::uint64_t> subnetWords_; // 2 addresses per word
  std::vector<std::size_t> subnetWordOffsets_; // size sessions.size()+1

  std::vector<SourceAggregates> aggregates_;

#if !defined(V6T_INDEX_STATS_DISABLED)
  mutable std::atomic<std::uint64_t> targetSpansServed_{0};
  mutable std::atomic<std::uint64_t> rescansAvoided_{0};
#endif
};

} // namespace v6t::analysis
