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
//
// SegmentStore is the writer. Sealed segments have one read,
// mergeSegments(): a KWayMerge over their cursors, the same kway_merge.hpp
// heap as the in-memory CaptureStore::mergeFrom — so the streamed order,
// and therefore every digest downstream, is bitwise-identical to the
// in-memory path. What a store has not sealed is not readable; the runner
// seals every store before run() returns.
//
// Crash consistency: a segment is written to `<name>.tmp` and renamed into
// place only when fully durable, and a spill always drains the whole
// memtable — so the sealed segments hold exactly the first
// `recovery().durableRecords` appends. A writer reopening a directory
// quarantines `*.tmp` leftovers and unreadable segments and replays its
// input from that watermark to reach the reference state exactly. A
// reader (openSpilledSegments) renames nothing: it ignores `.tmp` and
// `.quarantined` files and refuses an unreadable segment.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
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
/// outlives the SegmentReader that minted it. A cursor that started at
/// record 0 folds the bytes it reads into the data checksum and throws on
/// mismatch when it reaches the end — a full read IS a verification pass.
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

  /// Cursor over the records with ts >= `from`, or over every record
  /// without `from`. The start comes from the sparse index: the last entry
  /// before `from`, then a scan of at most indexStride records. Only a
  /// cursor that starts at record 0 can verify the data checksum.
  [[nodiscard]] SegmentCursor cursor(
      std::optional<sim::SimTime> from = std::nullopt) const;

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
  /// segments are adopted in sequence order. A writer's step: readers
  /// open sealed segments with openSpilledSegments, which renames nothing.
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

  /// A writer's last step: spill what the memtable holds and hand over
  /// the readers of every sealed segment, moved rather than copied (their
  /// source tables and sparse indexes are megabytes at paper scale).
  [[nodiscard]] std::vector<SegmentReader> seal() && {
    spill();
    return std::move(segments_);
  }

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

/// The one read of sealed segments: a canonical-order merge of every
/// segment's cursor(from), from any number of stores.
/// - `from`: start at the first packet with ts >= from (each segment's
///   sparse-index lower bound; nothing before `from` is read off disk).
/// - `source`: skip each segment whose exact source table holds nothing
///   from that address (`v6t_run --dump-captures --source`). The stream is
///   still a superset of the source's packets, so callers filter per
///   record.
[[nodiscard]] KWayMerge<SegmentCursor> mergeSegments(
    std::span<const SegmentReader> segments,
    std::optional<sim::SimTime> from = std::nullopt,
    std::optional<net::Ipv6Address> source = std::nullopt);

// --- the spill root: `<root>/shard-<s>/<telescope>` ------------------------
//
// The runner gives every (shard, telescope) pair its own store directory
// under the spill root; v6t_serve --spill-dir reads a telescope back from
// the same layout (docs/FORMATS.md).

/// The store directory of `telescope` in shard `shard` under `root`.
[[nodiscard]] std::filesystem::path spillStoreDir(
    const std::filesystem::path& root, unsigned shard,
    const std::string& telescope);

/// Throws std::runtime_error when a store under `root` already holds
/// segment files. A store adopts the sealed segments it finds, so a second
/// run into the same root would count the first run's packets again; the
/// old files are left as they are. A missing root is unused.
void requireUnusedSpillRoot(const std::filesystem::path& root);

/// Every sealed segment of `telescope` under a spill root, read-only: the
/// `seg-*.v6tseg` files of each `shard-<s>/<telescope>` store. `.tmp` and
/// `.quarantined` files are ignored and nothing is renamed. Throws
/// std::runtime_error, naming the path, when `root` holds no shard
/// directory (a bare store directory is not a spill root), a shard has no
/// `telescope` store, or a segment fails SegmentReader::probe.
[[nodiscard]] std::vector<SegmentReader> openSpilledSegments(
    const std::filesystem::path& root, const std::string& telescope);

} // namespace v6t::telescope
