// v6t::telescope — the out-of-core capture store ("v6tseg" segments).
//
// An LSM-shaped spill path for captures that outgrow memory (DESIGN.md
// §15, format in docs/FORMATS.md): appends land in a bounded in-memory
// memtable; when the memtable exceeds the configured byte budget it is
// sorted into canonical (ts, originId, originSeq) order and dumped as one
// immutable segment file — the RdbBase/RdbDump spill-run shape. Each
// segment carries a sparse (ts, offset) index, a per-source packet-count
// table, min/max timestamps and FNV checksums (the RdbMap role). Each
// record is written once, by the spill that seals it, and never rewritten.
// Reads go through a merge cursor over every sealed segment plus the
// memtable, built on the same kway_merge.hpp heap as the in-memory
// CaptureStore::mergeFrom — so the streamed order, and therefore every
// digest downstream, is bitwise-identical to the in-memory path.
//
// Crash consistency: a segment is written to `<name>.tmp` and renamed into
// place only when fully durable, and a spill always drains the whole
// memtable — so the sealed segments hold exactly the first
// `recovery().durableRecords` appends. Reopening a directory quarantines
// `*.tmp` leftovers and unreadable segments, and a writer replays its
// input from that watermark to reach the reference state exactly.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "telescope/kway_merge.hpp"

namespace v6t::telescope {

inline constexpr char kSegmentMagic[8] = {'V', '6', 'T', 'S', 'E', 'G', 1, 0};
inline constexpr char kSegmentFooterMagic[8] = {'V', '6', 'T', 'S',
                                                'E', 'G', 'F', 1};
/// Fixed footer size at the end of every sealed segment.
inline constexpr std::size_t kSegmentFooterBytes = 64;

/// Per-source packet count, sorted by address — the segment's source table.
struct SegmentSourceCount {
  net::Ipv6Address addr;
  std::uint64_t count = 0;
};

/// One sparse-index entry: timestamp, record ordinal and file offset of
/// every indexStride-th record.
struct SegmentIndexEntry {
  std::int64_t ts = 0;
  std::uint64_t record = 0;
  std::uint64_t offset = 0;
};

/// Everything a sealed segment says about itself without reading records:
/// decoded footer + sparse index + source table (the "RdbMap" metadata).
struct SegmentMeta {
  sim::SimTime minTs;
  sim::SimTime maxTs;
  std::uint64_t recordCount = 0;
  std::uint64_t indexOffset = 0; // file offset of the first index entry
  std::uint64_t dataChecksum = 0; // FNV-1a over all record bytes
  std::vector<SegmentIndexEntry> sparse; // ascending ts/record/offset
  std::vector<SegmentSourceCount> sources;
};

/// Streams one sealed segment's records in canonical order (a
/// kway_merge.hpp cursor). Self-contained: owns its ifstream, so it
/// outlives the SegmentReader/SegmentStore that minted it. A cursor that
/// started at record 0 folds the bytes it reads into the data checksum and
/// throws on mismatch when it reaches the end — a full read IS a
/// verification pass.
class SegmentCursor {
public:
  /// Cursor over `[firstRecord, recordCount)` starting at `startOffset`.
  SegmentCursor(const std::filesystem::path& path, const SegmentMeta& meta,
                std::uint64_t firstRecord, std::uint64_t startOffset);

  [[nodiscard]] bool empty() const { return !valid_; }
  [[nodiscard]] const net::Packet& head() const { return head_; }
  bool advance();

private:
  void readNext();

  std::ifstream in_;
  std::string path_; // for error messages
  net::Packet head_;
  std::uint64_t remaining_ = 0;
  std::uint64_t expectChecksum_ = 0;
  std::uint64_t runningChecksum_;
  bool verify_ = false; // only full-file cursors can check the checksum
  bool valid_ = false;
};

/// Opens and validates one sealed segment: header magic, footer magic, and
/// the metadata checksum over index + source table + footer. Lookups below
/// are what the sparse-index tests drive against a linear-scan oracle.
class SegmentReader {
public:
  /// Validate without throwing: nullopt on any malformed/truncated file.
  [[nodiscard]] static std::optional<SegmentMeta> probe(
      const std::filesystem::path& path);

  /// Throwing variant of probe() for paths that must be valid.
  explicit SegmentReader(std::filesystem::path path);

  [[nodiscard]] const SegmentMeta& meta() const { return meta_; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// Stream every record from the start (checksum-verified at the end).
  [[nodiscard]] SegmentCursor cursor() const;

  /// Cursor positioned at the first record with ts >= t: binary search the
  /// sparse index for the last entry at or before t, then scan at most
  /// indexStride records. Not checksum-verified (mid-file start).
  [[nodiscard]] SegmentCursor lowerBound(sim::SimTime t) const;

  /// Packets this segment holds from `addr` (exact, from the source
  /// table); zero for unknown sources.
  [[nodiscard]] std::uint64_t packetsFromSource(
      const net::Ipv6Address& addr) const;

private:
  std::filesystem::path path_;
  SegmentMeta meta_;
};

struct SegmentStoreOptions {
  std::filesystem::path dir;
  /// Memtable byte budget (packets * sizeof(net::Packet)); crossing it
  /// triggers a spill. 0 = never auto-spill (explicit spill() only).
  std::uint64_t spillBytes = 64ull << 20;
  /// One sparse index entry every this many records.
  std::uint64_t indexStride = 1024;
  obs::Registry* metrics = nullptr;
  /// Crash seam for the recovery tests: invoked with the still-unrenamed
  /// `.tmp` path just before a finished segment is sealed. Throwing here
  /// (or truncating the file first) simulates dying mid-spill.
  std::function<void(const std::filesystem::path& tmpPath)> beforeSeal;
};

class SegmentStore {
public:
  struct Recovery {
    /// Appends already safe in sealed segments when the dir was opened —
    /// the replay-skip watermark.
    std::uint64_t durableRecords = 0;
    std::size_t sealedSegments = 0;
    std::size_t quarantined = 0;
  };

  /// Opens (creating the directory if needed) and recovers: `*.tmp`
  /// leftovers and unreadable segments are renamed `*.quarantined`, valid
  /// segments are adopted in sequence order.
  explicit SegmentStore(SegmentStoreOptions options);

  [[nodiscard]] const Recovery& recovery() const { return recovery_; }
  [[nodiscard]] const SegmentStoreOptions& options() const {
    return options_;
  }

  /// Append one packet. Precondition: p.ts >= ts of the previous append
  /// (same time-ordered contract as CaptureStore::append). May spill.
  void append(const net::Packet& p);

  /// Force the memtable to disk as one sealed segment (no-op when empty).
  /// Auto-invoked when the byte budget is crossed.
  void spill();

  [[nodiscard]] std::uint64_t recordCount() const {
    return sealedRecords_ + memtable_.size();
  }
  [[nodiscard]] std::uint64_t sealedRecords() const { return sealedRecords_; }
  [[nodiscard]] std::size_t segmentCount() const { return segments_.size(); }
  [[nodiscard]] std::uint64_t memtableBytes() const {
    return memtable_.size() * sizeof(net::Packet);
  }
  /// Bytes currently on disk across sealed segments.
  [[nodiscard]] std::uint64_t spilledBytes() const;
  [[nodiscard]] const std::vector<SegmentReader>& segments() const {
    return segments_;
  }

  /// Packets from `addr` across sealed segments (source tables) plus the
  /// memtable — the sparse-metadata lookup the tests check against a full
  /// linear scan.
  [[nodiscard]] std::uint64_t packetsFromSource(
      const net::Ipv6Address& addr) const;

  /// Canonical-order stream over sealed segments + memtable; itself a
  /// kway_merge.hpp cursor, so per-shard stores compose into one run-wide
  /// merge. Valid until the next append/spill.
  class Cursor {
  public:
    Cursor(std::vector<SegmentCursor> segments,
           std::vector<net::Packet> memRun);
    [[nodiscard]] bool empty() const;
    [[nodiscard]] const net::Packet& head() const;
    bool advance();

  private:
    [[nodiscard]] bool memFirst() const;
    KWayMerge<SegmentCursor> merge_;
    std::vector<net::Packet> memRun_; // canonical-sorted memtable snapshot
    std::size_t memPos_ = 0;
  };
  [[nodiscard]] Cursor cursor() const;

  /// Cursor positioned at the first record with ts >= `from`: sparse-index
  /// lowerBound per sealed segment plus a lower bound on the time-ordered
  /// memtable. Streams exactly cursor()'s canonical order with the earlier
  /// records dropped (ts leads the canonical key) — the ranged-dump path
  /// of `v6t_run --dump-captures --from`.
  [[nodiscard]] Cursor cursor(sim::SimTime from) const;

  /// Pruned cursor for a per-source scan: sealed segments whose source
  /// table shows zero packets from `addr` are skipped entirely (their
  /// files are never opened), and the memtable snapshot keeps only that
  /// source's packets. The stream is still a superset of the source's
  /// packets — retained segments interleave other sources — so callers
  /// filter per record; the win is that a rare source touches only the
  /// few segments that actually hold it. With `from`, retained segments
  /// start at their sparse-index lower bound, like cursor(from).
  [[nodiscard]] Cursor cursorForSource(
      const net::Ipv6Address& addr,
      std::optional<sim::SimTime> from = std::nullopt) const;

  /// Digest of the full canonical stream — equals CaptureStore::digest()
  /// over the same packets, by construction.
  [[nodiscard]] std::uint64_t digest() const;

private:
  void recoverDir();
  [[nodiscard]] std::filesystem::path segmentPath(std::uint64_t seq) const;

  SegmentStoreOptions options_;
  Recovery recovery_;
  std::vector<SegmentReader> segments_; // sequence order
  std::vector<net::Packet> memtable_; // time-ordered
  std::uint64_t sealedRecords_ = 0;
  std::uint64_t nextSeq_ = 0;
};

} // namespace v6t::telescope
