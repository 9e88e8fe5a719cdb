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
//   session starts   per-source start-time runs for the period detector
//   target lanes     per-session destination addresses as two u64 lanes
//                    (hi64, lo64), session-major, arrival order
//   subnet words     address bits 32..63, two packets per word
//   payload memo     per-session first-payload packet + payload counts
//   per-source aggregates  packets, first/last day, origin ASN
//
// The lanes are the only per-packet copy (DESIGN.md §16): an address's 64
// IID bits ARE its lo64 lane word, so the NIST IID bit column and the
// word classifier's input are the same memory, and each indexed packet
// costs 20 bytes (two lanes plus half a subnet word). The exact period
// detector (autocorr.hpp) reads only the session-start runs.
//
// The index is immutable after build and shared read-only by all
// pipeline workers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/nist.hpp"
#include "net/packet.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {

/// Always false: the index keeps no counters. `perfbench/cpp/main.cpp`
/// prints this constant in its provenance line, so it stays until the
/// benchmark drops the field.
inline constexpr bool kIndexStatsCompiledIn = false;

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

  // --- columnar view (DESIGN.md §16) ------------------------------------

  /// One session's destination addresses as parallel lanes, arrival
  /// order: `hi` is hi64(), `lo` is lo64() (== the IID word); both have
  /// sessionPacketCountOf(s) elements.
  struct TargetColumns {
    std::span<const std::uint64_t> hi;
    std::span<const std::uint64_t> lo;
  };
  [[nodiscard]] TargetColumns columnsOf(std::uint32_t s) const {
    const std::size_t off = targetOffsets_[s];
    const std::size_t n = targetOffsets_[s + 1] - off;
    return {{targetHi_.data() + off, n}, {targetLo_.data() + off, n}};
  }

  /// Session `s`'s IID bit sequence, bit-packed: identical bits to
  /// bitsFromAddresses over its targets with (64, 64) — the lo64 lane IS
  /// the MSB-first packed sequence, so this is a zero-copy view.
  [[nodiscard]] PackedBits iidBitsOf(std::uint32_t s) const {
    const std::size_t off = targetOffsets_[s];
    const std::size_t n = targetOffsets_[s + 1] - off;
    return {{targetLo_.data() + off, n}, n * 64};
  }
  /// Session `s`'s subnet bit sequence (address bits 32..63), bit-packed
  /// two addresses per word: identical bits to bitsFromAddresses over its
  /// targets with (32, 32).
  [[nodiscard]] PackedBits subnetBitsOf(std::uint32_t s) const {
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
    return targetLo_.size();
  }

  // --- scheduler cost estimates (DESIGN.md §13) -------------------------

  [[nodiscard]] std::size_t sessionCountOf(std::size_t i) const {
    return sourceOffsets_[i + 1] - sourceOffsets_[i];
  }
  /// Packets (== targets) of session `s`.
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

private:
  std::span<const net::Packet> packets_;
  std::span<const telescope::Session> sessions_;

  std::vector<telescope::SourceKey> sources_;
  std::vector<std::size_t> sourceOffsets_; // size sourceCount()+1
  std::vector<std::uint32_t> sessionIdx_; // grouped by source
  std::vector<sim::SimTime> sessionStarts_; // parallel to sessionIdx_

  std::vector<std::uint32_t> sessionFirstPayload_;
  std::vector<std::uint32_t> sessionPayloadPackets_;

  // Columnar view, session-major: the target lanes share targetOffsets_,
  // the subnet words have their own per-session word offsets.
  std::vector<std::size_t> targetOffsets_; // size sessions.size()+1
  std::vector<std::uint64_t> targetHi_;
  std::vector<std::uint64_t> targetLo_; // == the packed IID bit column
  std::vector<std::uint64_t> subnetWords_; // 2 addresses per word
  std::vector<std::size_t> subnetWordOffsets_; // size sessions.size()+1

  std::vector<SourceAggregates> aggregates_;
};

} // namespace v6t::analysis
