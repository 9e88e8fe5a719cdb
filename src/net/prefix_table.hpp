// v6t::net — IPv6 prefix table: one exact-match hash table per length.
//
// Backs the BGP RIB's longest-prefix match and routability test and the
// fabric's source-AS attribution, each run once or twice per simulated
// packet (DESIGN.md §11). Every stored prefix length gets an
// open-addressing table keyed by the masked 128-bit address, and the
// lengths are kept sorted: longestMatch() probes them longest-first and
// covers() shortest-first, each stopping at the first hit. A run's source
// routes are all /64s, so the source match is a single hash probe, and
// the RIB holds a handful of lengths.
//
// Pointers returned by findExact(), longestMatch() and entries() stay
// valid until the next insert() or erase(): growing a table rehashes it,
// and erase() shifts the rest of its probe chain back. Callers copy what
// they need before changing the table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/prefix.hpp"

namespace v6t::net {

template <typename T>
class PrefixTable {
public:
  /// Insert or overwrite the value stored at `prefix`.
  /// Returns true if a new entry was created (false on overwrite).
  bool insert(const Prefix& prefix, T value) {
    auto it = std::lower_bound(
        levels_.begin(), levels_.end(), prefix.length(),
        [](const Level& l, unsigned len) { return l.len < len; });
    if (it == levels_.end() || it->len != prefix.length()) {
      it = levels_.insert(it, Level{prefix.length()});
    }
    const bool fresh = it->table.insert(prefix.address().value(),
                                        std::move(value));
    if (fresh) ++size_;
    return fresh;
  }

  /// Remove the entry at exactly `prefix`. Returns true if one existed. A
  /// length whose last prefix goes is dropped from the probe order.
  bool erase(const Prefix& prefix) {
    const auto it = findLevel(prefix.length());
    if (it == levels_.end() || !it->table.erase(prefix.address().value())) {
      return false;
    }
    if (it->table.size() == 0) levels_.erase(it);
    --size_;
    return true;
  }

  [[nodiscard]] const T* findExact(const Prefix& prefix) const {
    const auto it = findLevel(prefix.length());
    return it == levels_.end() ? nullptr
                               : it->table.find(prefix.address().value());
  }
  [[nodiscard]] T* findExact(const Prefix& prefix) {
    return const_cast<T*>(std::as_const(*this).findExact(prefix));
  }

  /// Longest-prefix match for an address; nullopt if nothing covers it.
  [[nodiscard]] std::optional<std::pair<Prefix, const T*>> longestMatch(
      const Ipv6Address& addr) const {
    const u128 key = addr.value();
    for (auto it = levels_.rbegin(); it != levels_.rend(); ++it) {
      if (const T* value = it->table.find(key & it->mask)) {
        return std::pair{Prefix{addr, it->len}, value};
      }
    }
    return std::nullopt;
  }

  /// Does any stored prefix cover `addr`? Stops at the shortest one — the
  /// routability test, which needs no match details.
  [[nodiscard]] bool covers(const Ipv6Address& addr) const {
    const u128 key = addr.value();
    for (const Level& level : levels_) {
      if (level.table.find(key & level.mask) != nullptr) return true;
    }
    return false;
  }

  /// All stored (prefix, value) pairs ordered by (address, length): a
  /// covering prefix before the prefixes it covers, disjoint ones in
  /// address order.
  [[nodiscard]] std::vector<std::pair<Prefix, const T*>> entries() const {
    std::vector<std::pair<Prefix, const T*>> out;
    out.reserve(size_);
    for (const Level& level : levels_) {
      level.table.forEach([&](u128 key, const T& value) {
        out.emplace_back(Prefix{Ipv6Address::fromValue(key), level.len},
                         &value);
      });
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    levels_.clear();
    size_ = 0;
  }

private:
  /// Linear-probing table over masked addresses: power-of-two capacity,
  /// at most half full, no tombstones (erase shifts the chain back).
  class ExactTable {
  public:
    [[nodiscard]] std::size_t size() const { return size_; }

    [[nodiscard]] const T* find(u128 key) const {
      if (size_ == 0) return nullptr;
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = home(key); slots_[i].value; i = (i + 1) & mask) {
        if (slots_[i].key == key) return &*slots_[i].value;
      }
      return nullptr;
    }

    /// True if `key` was new (false: its value was overwritten).
    bool insert(u128 key, T&& value) {
      if ((size_ + 1) * 2 > slots_.size()) grow();
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = home(key);
      for (; slots_[i].value; i = (i + 1) & mask) {
        if (slots_[i].key == key) {
          *slots_[i].value = std::move(value);
          return false;
        }
      }
      slots_[i].key = key;
      slots_[i].value.emplace(std::move(value));
      ++size_;
      return true;
    }

    /// Backward-shift deletion: every later entry of the probe chain that
    /// may sit in the freed slot moves into it, so lookups never need a
    /// tombstone to keep probing.
    bool erase(u128 key) {
      if (size_ == 0) return false;
      const std::size_t mask = slots_.size() - 1;
      std::size_t hole = home(key);
      for (;; hole = (hole + 1) & mask) {
        if (!slots_[hole].value) return false;
        if (slots_[hole].key == key) break;
      }
      slots_[hole].value.reset();
      --size_;
      for (std::size_t j = (hole + 1) & mask; slots_[j].value;
           j = (j + 1) & mask) {
        // Slot j may fill the hole only if the hole lies on its probe
        // path, i.e. its home is no later than the hole (cyclically).
        if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
          slots_[hole].key = slots_[j].key;
          slots_[hole].value = std::move(slots_[j].value);
          slots_[j].value.reset();
          hole = j;
        }
      }
      return true;
    }

    template <typename F>
    void forEach(F&& f) const {
      for (const Slot& s : slots_) {
        if (s.value) f(s.key, *s.value);
      }
    }

  private:
    struct Slot {
      u128 key = 0;
      std::optional<T> value; // engaged = occupied
    };

    [[nodiscard]] std::size_t home(u128 key) const {
      std::uint64_t h = static_cast<std::uint64_t>(key >> 64) ^
                        (static_cast<std::uint64_t>(key) *
                         0x9e3779b97f4a7c15ULL);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      return static_cast<std::size_t>(h) & (slots_.size() - 1);
    }

    void grow() {
      std::vector<Slot> old(std::max<std::size_t>(16, slots_.size() * 2));
      old.swap(slots_);
      size_ = 0;
      for (Slot& s : old) {
        if (s.value) insert(s.key, std::move(*s.value));
      }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  struct Level {
    explicit Level(unsigned length)
        : len(length),
          mask(length == 0 ? u128{0} : ~u128{0} << (128 - length)) {}
    unsigned len;
    u128 mask;
    ExactTable table;
  };

  [[nodiscard]] typename std::vector<Level>::const_iterator findLevel(
      unsigned len) const {
    const auto it = std::lower_bound(
        levels_.begin(), levels_.end(), len,
        [](const Level& l, unsigned want) { return l.len < want; });
    return it != levels_.end() && it->len == len ? it : levels_.end();
  }
  [[nodiscard]] typename std::vector<Level>::iterator findLevel(unsigned len) {
    const auto it = std::as_const(*this).findLevel(len);
    return levels_.begin() + (it - levels_.cbegin());
  }

  std::vector<Level> levels_; // ascending length
  std::size_t size_ = 0;
};

} // namespace v6t::net
