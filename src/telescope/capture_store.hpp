// v6t::telescope — per-telescope packet archive.
//
// Append-only, time-ordered capture with incrementally maintained summary
// statistics and hourly/daily/weekly time-series buckets. This is the only
// thing the analysis pipeline ever reads — the strict generator/estimator
// boundary of DESIGN.md §5.
//
// A run fills it once, through mergeFrom(): the shards' telescopes buffer
// plain packets, and the merge takes those buffers by move and accounts
// each packet exactly once (DESIGN.md §8/§11).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "telescope/flat_hash_set.hpp"

namespace v6t::telescope {

class CaptureStore {
public:
  /// First-append reservation size (packets); see append().
  static constexpr std::size_t kAppendChunk = 1024;

  /// Append a packet. Precondition: p.ts >= ts of the previous append (the
  /// simulation delivers in time order).
  void append(net::Packet p);

  /// Pre-size the packet buffer and the distinct-source/destination hash
  /// sets for an expected capture volume; purely a performance hint.
  void reserve(std::size_t expectedPackets);

  [[nodiscard]] const std::vector<net::Packet>& packets() const {
    return packets_;
  }
  [[nodiscard]] std::uint64_t packetCount() const { return packets_.size(); }

  /// Distinct /128 source addresses seen so far.
  [[nodiscard]] std::size_t distinctSources128() const {
    return sources128_.size();
  }
  /// Distinct /64 source networks.
  [[nodiscard]] std::size_t distinctSources64() const {
    return sources64_.size();
  }
  [[nodiscard]] std::size_t distinctAsns() const { return asns_.size(); }
  [[nodiscard]] std::size_t distinctDestinations() const {
    return destinations_.size();
  }

  /// Packets per time bucket (bucket index -> count). Buckets without
  /// traffic are absent.
  [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& hourlyCounts()
      const {
    return hourly_;
  }
  [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& dailyCounts()
      const {
    return daily_;
  }
  [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& weeklyCounts()
      const {
    return weekly_;
  }

  [[nodiscard]] std::uint64_t packetsPerProtocol(net::Protocol p) const {
    return perProtocol_[static_cast<std::size_t>(p)];
  }

  /// Replace this store's contents with the union of `shards`, reordered
  /// into canonical capture order: ascending (ts, originId, originSeq) — a
  /// unique key, since a scanner's emission counter never repeats. Applied
  /// even to a single shard: within one engine, equal-timestamp packets
  /// sit in event-scheduling order, which depends on how scanners
  /// interleave, so canonicalization is what makes the merged capture
  /// identical for every shard count. Stats are rebuilt.
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
  /// number of records read; stats are rebuilt.
  std::uint64_t readFrom(std::istream& in);

  void clear();

private:
  void account(const net::Packet& p);

  /// One time-series bucket memo: appends arrive in time order, so nearly
  /// every packet lands in the same (hour, day, week) buckets as its
  /// predecessor — three cached node pointers turn three map descents per
  /// packet into three integer compares. std::map nodes are pointer-stable,
  /// so the memo survives unrelated inserts.
  struct BucketMemo {
    std::int64_t hour = -1;
    std::int64_t day = -1;
    std::int64_t week = -1;
    std::uint64_t* hourCount = nullptr;
    std::uint64_t* dayCount = nullptr;
    std::uint64_t* weekCount = nullptr;
  };

  std::vector<net::Packet> packets_;
  FlatHashSet<net::Ipv6Address> sources128_;
  FlatHashSet<net::Ipv6Address> sources64_; // masked to /64
  FlatHashSet<net::Ipv6Address> destinations_;
  FlatHashSet<net::Asn> asns_;
  std::map<std::int64_t, std::uint64_t> hourly_;
  std::map<std::int64_t, std::uint64_t> daily_;
  std::map<std::int64_t, std::uint64_t> weekly_;
  BucketMemo memo_;
  std::uint64_t perProtocol_[3] = {0, 0, 0};
};

} // namespace v6t::telescope
