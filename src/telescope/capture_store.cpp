#include "telescope/capture_store.hpp"

#include <algorithm>

#include "telescope/digest.hpp"
#include "telescope/flat_hash_set.hpp"
#include "telescope/kway_merge.hpp"

namespace v6t::telescope {

void CaptureStore::mergeFrom(std::vector<std::vector<net::Packet>> shards) {
  // Each shard is already time-ordered (append precondition), but packets
  // at one instant sit in that shard's event-scheduling order. Sorting
  // each equal-ts run by (originId, originSeq) makes every shard
  // canonical-key-sorted — a near-no-op pass over mostly length-1 runs —
  // after which one shard is the answer and several need only a k-way
  // merge. The run sort and the cursor heap are the shared kway_merge.hpp
  // machinery, so this path is definitionally order-identical to the
  // out-of-core read, mergeSegments.
  std::size_t total = 0;
  for (std::vector<net::Packet>& shard : shards) {
    sortCanonicalRuns(shard);
    total += shard.size();
  }

  clear();
  if (shards.size() == 1) {
    packets_ = std::move(shards.front());
  } else {
    std::vector<SpanCursor> cursors;
    cursors.reserve(shards.size());
    for (const std::vector<net::Packet>& shard : shards) {
      cursors.push_back(SpanCursor{shard});
    }
    packets_.reserve(total);
    for (KWayMerge<SpanCursor> merge{std::move(cursors)}; !merge.done();
         merge.pop()) {
      packets_.push_back(merge.head());
    }
  }
}

std::uint64_t CaptureStore::digest() const {
  std::uint64_t h = kFnvBasis;
  for (const net::Packet& p : packets_) fnv1aPacket(h, p);
  return h;
}

CaptureStats captureStats(std::span<const net::Packet> packets) {
  // Distinct sources are a small fraction of packets (every scanner sends
  // many probes); an eighth is a generous upper-bound heuristic that
  // avoids both rehash churn and gross over-allocation. Destinations are
  // not: most probes go to a fresh target (72% of T1's packets and 47% of
  // T2's in a default run), so they get half the packets.
  const std::size_t distinct = packets.size() / 8 + 64;
  FlatHashSet<net::Ipv6Address> sources128;
  FlatHashSet<net::Ipv6Address> sources64; // masked to /64
  FlatHashSet<net::Ipv6Address> destinations;
  FlatHashSet<net::Asn> asns;
  sources128.reserve(distinct);
  sources64.reserve(distinct);
  destinations.reserve(packets.size() / 2 + 64);
  asns.reserve(distinct / 4 + 16);

  // Bucket memo: in a time-ordered run nearly every packet lands in the
  // same (hour, day, week) buckets as its predecessor, so three cached
  // node pointers turn three map descents per packet into three integer
  // compares. std::map nodes are pointer-stable, so the memo survives
  // unrelated inserts.
  CaptureStats stats;
  std::int64_t hour = -1;
  std::int64_t day = -1;
  std::int64_t week = -1;
  std::uint64_t* hourCount = nullptr;
  std::uint64_t* dayCount = nullptr;
  std::uint64_t* weekCount = nullptr;
  for (const net::Packet& p : packets) {
    sources128.insert(p.src);
    sources64.insert(p.src.maskedTo(64));
    destinations.insert(p.dst);
    if (!p.srcAsn.unattributed()) asns.insert(p.srcAsn);
    if (p.ts.hourIndex() != hour) {
      hour = p.ts.hourIndex();
      hourCount = &stats.hourly[hour];
      if (p.ts.dayIndex() != day) {
        day = p.ts.dayIndex();
        dayCount = &stats.daily[day];
        if (p.ts.weekIndex() != week) {
          week = p.ts.weekIndex();
          weekCount = &stats.weekly[week];
        }
      }
    }
    ++*hourCount;
    ++*dayCount;
    ++*weekCount;
    ++stats.perProtocol[static_cast<std::size_t>(p.proto)];
  }
  stats.sources128 = sources128.size();
  stats.sources64 = sources64.size();
  stats.destinations = destinations.size();
  stats.asns = asns.size();
  return stats;
}

void CaptureStore::writeTo(std::ostream& out) const {
  net::CaptureWriter writer{out};
  for (const net::Packet& p : packets_) writer.write(p);
}

std::uint64_t CaptureStore::readFrom(std::istream& in) {
  clear();
  net::CaptureReader reader{in};
  while (auto p = reader.next()) append(std::move(*p));
  return packets_.size();
}

} // namespace v6t::telescope
