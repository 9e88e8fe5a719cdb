// v6t::telescope — the shared reserving k-way merge heap.
//
// Two places need the same operation — merge canonical-key-sorted packet
// runs into one canonical stream: CaptureStore::mergeFrom (per-shard
// in-memory buffers, as SpanCursors) and mergeSegments (sealed on-disk
// segments, as SegmentCursors). Both instantiate KWayMerge below, so the
// merge order is definitionally identical across in-memory and
// out-of-core paths — the bitwise-equality contract of DESIGN.md §8/§15.
//
// Cursor concept:
//   bool empty() const              true when the cursor has no head at all
//   const net::Packet& head() const current packet (stable until advance)
//   bool advance()                  step; false when exhausted
//
// KWayMerge itself satisfies the concept, so a merge drains wherever a
// cursor does (v6t_run's dump loop, StreamingAnalyzer::ingestAll).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace v6t::telescope {

/// Canonical capture order key: ascending (ts, originId, originSeq) — a
/// globally unique key, since a scanner's emission counter never repeats.
[[nodiscard]] inline auto canonicalKey(const net::Packet& p) {
  return std::make_tuple(p.ts.millis(), p.originId, p.originSeq);
}

/// Reorder a time-ordered packet run into canonical order, in place.
/// Appends arrive in time order (the store precondition), so only
/// equal-timestamp runs need sorting by (originId, originSeq) — a cheap
/// pass over mostly length-1 runs, not an O(N log N) full re-sort.
inline void sortCanonicalRuns(std::span<net::Packet> packets) {
  std::size_t runStart = 0;
  for (std::size_t i = 1; i <= packets.size(); ++i) {
    if (i == packets.size() || packets[i].ts != packets[runStart].ts) {
      if (i - runStart > 1) {
        std::sort(packets.begin() + static_cast<std::ptrdiff_t>(runStart),
                  packets.begin() + static_cast<std::ptrdiff_t>(i),
                  [](const net::Packet& a, const net::Packet& b) {
                    return canonicalKey(a) < canonicalKey(b);
                  });
      }
      runStart = i;
    }
  }
}

/// Cursor over a packet run held in memory: a shard's buffer in
/// CaptureStore::mergeFrom, or a merged capture from a start position in
/// v6t_run's ranged dump.
struct SpanCursor {
  std::span<const net::Packet> rest;

  [[nodiscard]] bool empty() const { return rest.empty(); }
  [[nodiscard]] const net::Packet& head() const { return rest.front(); }
  bool advance() {
    rest = rest.subspan(1);
    return !rest.empty();
  }
};

/// Binary heap of k cursors, emitting the globally smallest canonical key
/// first. k is the shard count, or a telescope's sealed segments across
/// every shard (capture bytes over the spill budget, tens per shard at
/// paper scale), so the heap stays cache-resident.
template <typename Cursor>
class KWayMerge {
public:
  explicit KWayMerge(std::vector<Cursor> cursors)
      : cursors_(std::move(cursors)) {
    heap_.reserve(cursors_.size());
    for (std::size_t i = 0; i < cursors_.size(); ++i) {
      if (!cursors_[i].empty()) heap_.push_back(i);
    }
    std::make_heap(heap_.begin(), heap_.end(), later());
  }

  [[nodiscard]] bool done() const { return heap_.empty(); }
  [[nodiscard]] const net::Packet& head() const {
    return cursors_[heap_.front()].head();
  }
  /// Step past the current head, restoring the heap invariant.
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later());
    if (cursors_[heap_.back()].advance()) {
      std::push_heap(heap_.begin(), heap_.end(), later());
    } else {
      heap_.pop_back();
    }
  }

  // Cursor-concept view of the merge itself.
  [[nodiscard]] bool empty() const { return done(); }
  bool advance() {
    pop();
    return !done();
  }

private:
  [[nodiscard]] auto later() const {
    return [this](std::size_t a, std::size_t b) {
      return canonicalKey(cursors_[a].head()) >
             canonicalKey(cursors_[b].head());
    };
  }

  std::vector<Cursor> cursors_;
  std::vector<std::size_t> heap_;
};

} // namespace v6t::telescope
