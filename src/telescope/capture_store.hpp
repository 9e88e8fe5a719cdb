// v6t::telescope — per-telescope packet archive.
//
// Append-only, time-ordered capture: the canonical packet vector plus the
// merge that builds it, its digest and v6tcap I/O. This is the only thing
// the analysis pipeline ever reads — the strict generator/estimator
// boundary of DESIGN.md §5.
//
// A run fills it once, through mergeFrom(): the shards' telescopes buffer
// plain packets, and the merge takes those buffers by move (DESIGN.md
// §8/§11). Summary statistics are not kept here: captureStats() computes
// them from any run of packets, for the callers that read them.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "net/pcap.hpp"

namespace v6t::telescope {

/// Distinct counts, time-series buckets and protocol mix of a packet run.
struct CaptureStats {
  std::size_t sources128 = 0; // distinct /128 source addresses
  std::size_t sources64 = 0; // distinct /64 source networks
  std::size_t destinations = 0; // distinct destination addresses
  std::size_t asns = 0; // distinct attributed source ASes
  /// Packets per time bucket (bucket index -> count). Buckets without
  /// traffic are absent.
  std::map<std::int64_t, std::uint64_t> hourly;
  std::map<std::int64_t, std::uint64_t> daily;
  std::map<std::int64_t, std::uint64_t> weekly;
  std::array<std::uint64_t, 3> perProtocol{}; // indexed by net::Protocol

  [[nodiscard]] std::uint64_t packetsPerProtocol(net::Protocol p) const {
    return perProtocol[static_cast<std::size_t>(p)];
  }
};

/// All of CaptureStats in one pass over `packets` — the only place these
/// values are computed. Any order is accepted; time-ordered runs (every
/// capture, and any time window of one) hit the bucket memo on nearly
/// every packet.
[[nodiscard]] CaptureStats captureStats(std::span<const net::Packet> packets);

class CaptureStore {
public:
  /// Append a packet. Precondition: p.ts >= ts of the previous append (the
  /// simulation delivers in time order).
  void append(net::Packet p) { packets_.push_back(p); }

  /// Pre-size the packet buffer for an expected capture volume; purely a
  /// performance hint.
  void reserve(std::size_t expectedPackets) {
    packets_.reserve(expectedPackets);
  }

  [[nodiscard]] const std::vector<net::Packet>& packets() const {
    return packets_;
  }
  [[nodiscard]] std::uint64_t packetCount() const { return packets_.size(); }

  /// Replace this store's contents with the union of `shards`, reordered
  /// into canonical capture order: ascending (ts, originId, originSeq) — a
  /// unique key, since a scanner's emission counter never repeats. Applied
  /// even to a single shard: within one engine, equal-timestamp packets
  /// sit in event-scheduling order, which depends on how scanners
  /// interleave, so canonicalization is what makes the merged capture
  /// identical for every shard count.
  ///
  /// Consuming: each shard buffer must be time-ordered (the append
  /// precondition). Its equal-timestamp runs are sorted in place by
  /// (originId, originSeq), after which one shard's buffer simply becomes
  /// this store's — nothing is copied — and several are combined by an
  /// O(N log k) k-way merge. The unique key makes the result identical to
  /// sorting the concatenation (the reference the equivalence tests check
  /// against).
  void mergeFrom(std::vector<std::vector<net::Packet>> shards);

  /// Order-sensitive FNV-1a hash over every stored field of every packet.
  /// Two stores with equal digests hold bitwise-identical captures — the
  /// equality the determinism-equivalence tests assert.
  [[nodiscard]] std::uint64_t digest() const;

  /// Serialize all records in v6tcap format.
  void writeTo(std::ostream& out) const;

  /// Restore from a v6tcap stream (replaces current contents). Returns the
  /// number of records read.
  std::uint64_t readFrom(std::istream& in);

  void clear() { packets_.clear(); }

private:
  std::vector<net::Packet> packets_;
};

} // namespace v6t::telescope
