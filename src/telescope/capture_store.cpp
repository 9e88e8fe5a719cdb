#include "telescope/capture_store.hpp"

#include <algorithm>

#include "telescope/digest.hpp"
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
  // out-of-core SegmentStore cursor and compaction paths.
  std::size_t total = 0;
  for (std::vector<net::Packet>& shard : shards) {
    sortCanonicalRuns(shard);
    total += shard.size();
  }

  clear();
  if (shards.size() == 1) {
    packets_ = std::move(shards.front());
  } else {
    struct ShardCursor {
      const std::vector<net::Packet>* packets;
      std::size_t pos = 0;
      [[nodiscard]] bool empty() const { return packets->empty(); }
      [[nodiscard]] const net::Packet& head() const {
        return (*packets)[pos];
      }
      bool advance() { return ++pos < packets->size(); }
    };
    std::vector<ShardCursor> cursors;
    cursors.reserve(shards.size());
    for (const std::vector<net::Packet>& shard : shards) {
      cursors.push_back(ShardCursor{&shard});
    }
    packets_.reserve(total);
    for (KWayMerge<ShardCursor> merge{std::move(cursors)}; !merge.done();
         merge.pop()) {
      packets_.push_back(merge.head());
    }
  }

  // The one accounting pass of a run's capture: the shards kept no stats.
  reserve(total);
  for (const net::Packet& p : packets_) account(p);
}

std::uint64_t CaptureStore::digest() const {
  std::uint64_t h = kFnvBasis;
  for (const net::Packet& p : packets_) fnv1aPacket(h, p);
  return h;
}

void CaptureStore::reserve(std::size_t expectedPackets) {
  packets_.reserve(expectedPackets);
  // Distinct sources are a small fraction of packets (every scanner sends
  // many probes); an eighth is a generous upper-bound heuristic that
  // avoids both rehash churn and gross over-allocation. Destinations are
  // not: most probes go to a fresh target (72% of T1's packets and 47% of
  // T2's in a default run), so they get half the packets.
  const std::size_t distinct = expectedPackets / 8 + 64;
  sources128_.reserve(distinct);
  sources64_.reserve(distinct);
  destinations_.reserve(expectedPackets / 2 + 64);
  asns_.reserve(distinct / 4 + 16);
}

void CaptureStore::append(net::Packet p) {
  // First contact: jump straight to a working-set-sized footprint instead
  // of doubling up from 1 (and rehashing the sets from 13 buckets) while
  // the capture is hot.
  if (packets_.empty() && packets_.capacity() == 0) reserve(kAppendChunk);
  account(p);
  packets_.push_back(p); // trivially copyable; no move advantage
}

void CaptureStore::account(const net::Packet& p) {
  sources128_.insert(p.src);
  sources64_.insert(p.src.maskedTo(64));
  destinations_.insert(p.dst);
  if (!p.srcAsn.unattributed()) asns_.insert(p.srcAsn);
  const std::int64_t hour = p.ts.hourIndex();
  if (hour != memo_.hour) {
    memo_.hour = hour;
    memo_.hourCount = &hourly_[hour];
    const std::int64_t day = p.ts.dayIndex();
    if (day != memo_.day) {
      memo_.day = day;
      memo_.dayCount = &daily_[day];
      const std::int64_t week = p.ts.weekIndex();
      if (week != memo_.week) {
        memo_.week = week;
        memo_.weekCount = &weekly_[week];
      }
    }
  }
  ++*memo_.hourCount;
  ++*memo_.dayCount;
  ++*memo_.weekCount;
  ++perProtocol_[static_cast<std::size_t>(p.proto)];
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

void CaptureStore::clear() {
  packets_.clear();
  sources128_.clear();
  sources64_.clear();
  destinations_.clear();
  asns_.clear();
  hourly_.clear();
  daily_.clear();
  weekly_.clear();
  memo_ = BucketMemo{};
  perProtocol_[0] = perProtocol_[1] = perProtocol_[2] = 0;
}

} // namespace v6t::telescope
