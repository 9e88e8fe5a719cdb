// v6t::analysis — descriptive statistics used across the evaluation:
// CDF series (Fig. 4), top-k port rankings (Table 4), cross-telescope
// membership and its UpSet intersections (Fig. 8, Fig. 16), and share
// helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "telescope/flat_hash_set.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {

/// Cumulative series over time buckets: (bucket index, cumulative count).
struct CumulativeSeries {
  std::vector<std::pair<std::int64_t, std::uint64_t>> points;

  [[nodiscard]] std::uint64_t total() const {
    return points.empty() ? 0 : points.back().second;
  }
  /// Value normalized to [0,1] at each point.
  [[nodiscard]] std::vector<std::pair<std::int64_t, double>> normalized()
      const;
};

/// Build a cumulative series from per-bucket counts.
[[nodiscard]] CumulativeSeries cumulative(
    const std::map<std::int64_t, std::uint64_t>& perBucket);

/// First-seen accumulation: given (bucket, id) observations, the cumulative
/// number of distinct ids over buckets.
template <typename Id>
[[nodiscard]] CumulativeSeries cumulativeDistinct(
    const std::vector<std::pair<std::int64_t, Id>>& observations) {
  std::map<std::int64_t, std::uint64_t> fresh;
  std::set<Id> seen;
  for (const auto& [bucket, id] : observations) {
    if (seen.insert(id).second) ++fresh[bucket];
  }
  return cumulative(fresh);
}

/// Port usage counted once per session (the paper's Table 4 method:
/// sessions aggregated at /64, each port counted once per session).
struct PortRank {
  std::uint16_t port = 0;
  bool tracerouteRange = false; // aggregated [33434, 33523] bucket
  std::uint64_t sessions = 0;
  double share = 0.0; // of sessions carrying this protocol
};

[[nodiscard]] std::vector<PortRank> topPorts(
    std::span<const net::Packet> packets,
    std::span<const telescope::Session> sessions, net::Protocol proto,
    std::size_t k);

/// Which windows saw each key: every distinct key once, ascending by
/// `operator<`, with bit w of `mask` set when window w saw it. The one
/// cross-telescope membership statistic behind Fig. 8 (UpSet) and Fig. 16
/// (source overlap).
template <typename Key>
struct Membership {
  struct Entry {
    Key key;
    std::uint32_t mask = 0;
  };
  std::size_t windowCount = 0;
  std::vector<Entry> entries;
};

namespace detail {
/// std::hash, extended to pairs so that (source, day) keys fold too.
struct KeyHash {
  template <typename T>
  std::size_t operator()(const T& v) const {
    return std::hash<T>{}(v);
  }
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& v) const {
    return std::hash<A>{}(v.first) ^
           std::hash<B>{}(v.second) * 0x9e3779b97f4a7c15ULL;
  }
};
} // namespace detail

/// Fold up to 32 packet windows into their key membership. `key(packet)`
/// returns std::optional<Key>; packets it maps to nullopt are skipped. One
/// first-seen pass per window, calling `key` once per packet, appends each
/// (key, window bit) once, then a single sort by key ORs the bits of equal
/// keys together.
template <typename KeyFn>
[[nodiscard]] auto membership(
    std::span<const std::span<const net::Packet>> windows, KeyFn key) {
  using Key = typename std::invoke_result_t<KeyFn,
                                            const net::Packet&>::value_type;
  Membership<Key> out;
  out.windowCount = windows.size();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    telescope::FlatHashSet<Key, detail::KeyHash> seen;
    for (const net::Packet& p : windows[w]) {
      const std::optional<Key> k = key(p);
      if (k && seen.insert(*k)) {
        out.entries.push_back({*k, std::uint32_t{1} << w});
      }
    }
  }
  auto& entries = out.entries;
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  std::size_t kept = 0;
  for (const auto& e : entries) {
    if (kept > 0 && entries[kept - 1].key == e.key) {
      entries[kept - 1].mask |= e.mask;
    } else {
      entries[kept++] = e;
    }
  }
  entries.resize(kept);
  return out;
}

/// UpSet-style exclusive intersection counts over N named sets.
struct UpsetRow {
  std::vector<bool> membership; // one flag per input set
  std::uint64_t count = 0;

  [[nodiscard]] std::string key(std::span<const std::string> names) const;
};

/// One row per non-empty exclusive combination, largest first, plus
/// per-set totals.
struct UpsetResult {
  std::vector<UpsetRow> rows;
  std::vector<std::uint64_t> setTotals;
};

/// The UpSet view of a membership fold. Equal counts keep lexicographic
/// membership order: the first window most significant, absent before
/// present.
template <typename Key>
[[nodiscard]] UpsetResult upset(const Membership<Key>& m) {
  const std::size_t n = m.windowCount;
  // That order is numeric order once window 0 is the highest bit.
  std::vector<std::uint32_t> ranks;
  ranks.reserve(m.entries.size());
  for (const auto& e : m.entries) {
    std::uint32_t r = 0;
    for (std::size_t w = 0; w < n; ++w) {
      r |= ((e.mask >> w) & 1u) << (n - 1 - w);
    }
    ranks.push_back(r);
  }
  std::sort(ranks.begin(), ranks.end());
  UpsetResult result;
  result.setTotals.assign(n, 0);
  for (auto it = ranks.begin(); it != ranks.end();) {
    const auto end = std::upper_bound(it, ranks.end(), *it);
    UpsetRow row{std::vector<bool>(n),
                 static_cast<std::uint64_t>(end - it)};
    for (std::size_t w = 0; w < n; ++w) {
      row.membership[w] = (*it >> (n - 1 - w)) & 1u;
      if (row.membership[w]) result.setTotals[w] += row.count;
    }
    result.rows.push_back(std::move(row));
    it = end;
  }
  std::stable_sort(result.rows.begin(), result.rows.end(),
                   [](const UpsetRow& a, const UpsetRow& b) {
                     return a.count > b.count;
                   });
  return result;
}

[[nodiscard]] inline double percent(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

} // namespace v6t::analysis
