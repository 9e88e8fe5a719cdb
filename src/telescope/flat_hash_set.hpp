// v6t::telescope — open-addressing hash set for capture statistics.
//
// std::unordered_set allocates one node per element, which would put a
// malloc on captureStats()'s per-packet path for every fresh /128 source,
// /64 network, and destination a capture holds — millions over a run, and
// terrible cache behavior. This set keeps elements in one flat slot array
// with linear probing: inserting N distinct keys costs O(log N) geometric
// grows instead of N node allocations, and membership probes touch
// contiguous memory.
//
// Deliberately minimal: insert / size / clear / reserve is everything the
// distinct counts need (counts are the product; nothing iterates), and
// dropping erase() means no tombstone machinery. Not a general container.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace v6t::telescope {

template <typename T, typename Hash = std::hash<T>>
class FlatHashSet {
public:
  FlatHashSet() = default;

  /// Insert `v`; returns true if it was not present before.
  bool insert(const T& v) {
    if (slots_.empty() || size_ * 8 >= slots_.size() * 7) {
      grow(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(v) & mask;
    while (occupied_[i]) {
      if (slots_[i] == v) return false;
      i = (i + 1) & mask;
    }
    occupied_[i] = 1;
    slots_[i] = v;
    ++size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    occupied_.assign(occupied_.size(), 0);
    size_ = 0;
  }

  /// Pre-size for `n` elements without rehash churn on the way there.
  void reserve(std::size_t n) {
    std::size_t want = kMinSlots;
    while (want * 7 < n * 8) want *= 2; // keep load factor under 7/8
    if (want > slots_.size()) grow(want);
  }

private:
  static constexpr std::size_t kMinSlots = 16; // power of two

  void grow(std::size_t newSlots) {
    std::vector<T> oldSlots = std::move(slots_);
    std::vector<std::uint8_t> oldOccupied = std::move(occupied_);
    slots_.assign(newSlots, T{});
    occupied_.assign(newSlots, 0);
    const std::size_t mask = newSlots - 1;
    for (std::size_t i = 0; i < oldSlots.size(); ++i) {
      if (!oldOccupied[i]) continue;
      std::size_t j = Hash{}(oldSlots[i]) & mask;
      while (occupied_[j]) j = (j + 1) & mask;
      occupied_[j] = 1;
      slots_[j] = std::move(oldSlots[i]);
    }
  }

  std::vector<T> slots_;
  std::vector<std::uint8_t> occupied_;
  std::size_t size_ = 0;
};

} // namespace v6t::telescope
