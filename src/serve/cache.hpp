// v6t::serve — sharded, byte-bounded LRU result cache.
//
// Hot dashboard queries hit the same handful of canonical query strings
// over and over. The QueryEngine already built every answer at load, so a
// miss costs a parse, a ranking slice and a render, not an analysis run;
// a hit saves that work and its allocations (bench/serve_load measures
// the difference). The cache maps canonical query key (canonicalQueryKey:
// two targets share a key only when they decode to the same path and
// parameters) -> rendered response body, bounded by `serve.cache_bytes`
// (the RdbCache role in the search-engine exemplar): N independent shards,
// each a mutex + LRU list + hash map, so concurrent workers only contend
// when their keys hash to the same shard. Every entry is charged key +
// value + a fixed bookkeeping constant against its shard's slice of the
// byte budget; inserting evicts from the shard's cold end until the entry
// fits. Values larger than a whole shard's budget are never cached.
//
// totalBytes == 0 disables the cache entirely (the cache-off bench leg):
// get() always misses, put() is a no-op, and no hit/miss metrics move.
//
// Metrics (registered on the optional Registry at construction):
//   serve.cache.hits_total / misses_total / evictions_total  counters
//   serve.cache.bytes / serve.cache.entries                  gauges (Last)
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace v6t::serve {

class ResultCache {
public:
  struct Options {
    std::uint64_t totalBytes = 64ull << 20; // 0 = cache disabled
    unsigned shards = 8;
    obs::Registry* registry = nullptr;
  };

  explicit ResultCache(Options options);

  [[nodiscard]] bool enabled() const { return perShardBytes_ > 0; }

  /// The cached body for `key`, or nullopt (miss / disabled). A hit
  /// refreshes the entry's LRU position.
  [[nodiscard]] std::optional<std::string> get(const std::string& key);

  /// Insert (or refresh) `key` -> `body`, evicting cold entries until the
  /// shard fits its budget. Oversized bodies are silently not cached.
  void put(const std::string& key, const std::string& body);

  [[nodiscard]] std::uint64_t bytes() const;
  [[nodiscard]] std::uint64_t entries() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

private:
  /// Fixed per-entry bookkeeping charge (list/map nodes, string headers).
  static constexpr std::uint64_t kEntryOverhead = 64;

  struct Entry {
    std::string key;
    std::string body;
  };

  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru; // front = hottest
    std::unordered_map<std::string, std::list<Entry>::iterator> map;
    std::uint64_t bytes = 0;
  };

  [[nodiscard]] static std::uint64_t charge(const Entry& e) {
    return e.key.size() + e.body.size() + kEntryOverhead;
  }
  [[nodiscard]] Shard& shardFor(const std::string& key);
  void publishGauges();

  std::uint64_t perShardBytes_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};

  obs::Counter* hitCounter_ = nullptr;
  obs::Counter* missCounter_ = nullptr;
  obs::Counter* evictCounter_ = nullptr;
  obs::Gauge* bytesGauge_ = nullptr;
  obs::Gauge* entriesGauge_ = nullptr;
};

} // namespace v6t::serve
