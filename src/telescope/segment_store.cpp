#include "telescope/segment_store.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string_view>

#include "net/pcap.hpp"
#include "telescope/digest.hpp"

namespace fs = std::filesystem;

namespace v6t::telescope {

namespace {

constexpr std::size_t kHeaderBytes = sizeof(kSegmentMagic); // 8
constexpr std::size_t kIndexEntryBytes = 24;
constexpr std::size_t kSourceEntryBytes = 24;
// Footer prefix (covered by the meta checksum): minTs maxTs recordCount
// indexCount sourceCount indexOffset dataChecksum.
constexpr std::size_t kFooterPrefixBytes = 8 + 8 + 8 + 4 + 4 + 8 + 8;
static_assert(kFooterPrefixBytes + 8 + sizeof(kSegmentFooterMagic) ==
              kSegmentFooterBytes);

using net::getLe;
using net::putLe;

/// Address-sorted packet counts per source of `records` — the segment's
/// source table.
std::vector<SegmentSourceCount> countSources(
    std::span<const net::Packet> records) {
  std::vector<net::Ipv6Address> addrs;
  addrs.reserve(records.size());
  for (const net::Packet& p : records) addrs.push_back(p.src);
  std::sort(addrs.begin(), addrs.end());
  std::vector<SegmentSourceCount> sources;
  for (const net::Ipv6Address& addr : addrs) {
    if (sources.empty() || sources.back().addr != addr) {
      sources.push_back(SegmentSourceCount{addr, 0});
    }
    ++sources.back().count;
  }
  return sources;
}

/// Writes `records` (non-empty, canonical order) to `<finalPath>.tmp`,
/// appends the sparse index, source table and footer, and seals the file by
/// renaming it to `finalPath` (the RdbDump shape — a reader never sees a
/// half-written segment under its final name). `beforeSeal` runs after the
/// stream is closed and before the rename — the crash seam of the recovery
/// tests. Returns the file's byte count.
std::uint64_t writeSegment(
    const fs::path& finalPath, std::span<const net::Packet> records,
    std::uint64_t indexStride,
    const std::function<void(const fs::path&)>& beforeSeal) {
  const fs::path tmpPath{finalPath.string() + ".tmp"};
  std::ofstream out{tmpPath, std::ios::binary | std::ios::trunc};
  if (!out) {
    throw std::runtime_error("cannot open segment " + tmpPath.string());
  }
  out.write(kSegmentMagic, sizeof(kSegmentMagic));

  const std::uint64_t stride = indexStride == 0 ? 1 : indexStride;
  std::vector<SegmentIndexEntry> sparse;
  std::uint64_t offset = kHeaderBytes;
  std::uint64_t dataChecksum = kFnvBasis;
  unsigned char buf[net::kMaxRecordBytes];
  for (std::uint64_t i = 0; i < records.size(); ++i) {
    const net::Packet& p = records[i];
    if (i % stride == 0) {
      sparse.push_back(SegmentIndexEntry{p.ts.millis(), i, offset});
    }
    const std::size_t n = net::encodeRecord(buf, p, /*withOrigin=*/true);
    fnv1aBytes(dataChecksum, buf, n);
    out.write(reinterpret_cast<const char*>(buf),
              static_cast<std::streamsize>(n));
    offset += n;
  }
  const std::vector<SegmentSourceCount> sources = countSources(records);

  // Meta block: sparse index, source table, footer prefix — checksummed
  // as one contiguous range so probe() can validate with a single read.
  std::vector<unsigned char> block(sparse.size() * kIndexEntryBytes +
                                   sources.size() * kSourceEntryBytes +
                                   kSegmentFooterBytes);
  unsigned char* q = block.data();
  for (const SegmentIndexEntry& e : sparse) {
    q += putLe<std::int64_t>(q, e.ts);
    q += putLe<std::uint64_t>(q, e.record);
    q += putLe<std::uint64_t>(q, e.offset);
  }
  for (const SegmentSourceCount& s : sources) {
    q += putLe<std::uint64_t>(q, s.addr.hi64());
    q += putLe<std::uint64_t>(q, s.addr.lo64());
    q += putLe<std::uint64_t>(q, s.count);
  }
  // Canonical order leads with ts, so the first and last records carry
  // the segment's time bounds.
  q += putLe<std::int64_t>(q, records.front().ts.millis());
  q += putLe<std::int64_t>(q, records.back().ts.millis());
  q += putLe<std::uint64_t>(q, records.size());
  q += putLe<std::uint32_t>(q, static_cast<std::uint32_t>(sparse.size()));
  q += putLe<std::uint32_t>(q, static_cast<std::uint32_t>(sources.size()));
  q += putLe<std::uint64_t>(q, offset); // indexOffset
  q += putLe<std::uint64_t>(q, dataChecksum);
  std::uint64_t metaChecksum = kFnvBasis;
  fnv1aBytes(metaChecksum, block.data(),
             static_cast<std::size_t>(q - block.data()));
  q += putLe<std::uint64_t>(q, metaChecksum);
  std::memcpy(q, kSegmentFooterMagic, sizeof(kSegmentFooterMagic));

  out.write(reinterpret_cast<const char*>(block.data()),
            static_cast<std::streamsize>(block.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error("short write sealing " + tmpPath.string());
  }
  out.close();
  if (beforeSeal) beforeSeal(tmpPath);
  fs::rename(tmpPath, finalPath);
  return offset + block.size();
}

[[nodiscard]] std::optional<std::uint64_t> parseSegmentSeq(
    const std::string& name) {
  // seg-NNNNNN.v6tseg
  if (!name.starts_with("seg-") || !name.ends_with(".v6tseg")) {
    return std::nullopt;
  }
  const std::string digits = name.substr(4, name.size() - 4 - 7);
  if (digits.empty()) return std::nullopt;
  std::uint64_t seq = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

/// The segment files of one store directory: the sealed `seg-N.v6tseg`
/// names in sequence order, and the `seg-N.v6tseg.tmp` spills whose seal
/// never happened. Every other file, `.quarantined` ones included, is
/// neither.
struct StoreListing {
  std::vector<std::pair<std::uint64_t, fs::path>> sealed;
  std::vector<fs::path> partial;
};

StoreListing listStore(const fs::path& dir) {
  StoreListing listing;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".v6tseg.tmp")) {
      listing.partial.push_back(entry.path());
    } else if (const auto seq = parseSegmentSeq(name)) {
      listing.sealed.emplace_back(*seq, entry.path());
    }
  }
  std::sort(listing.sealed.begin(), listing.sealed.end());
  return listing;
}

constexpr std::string_view kShardPrefix = "shard-";

/// The `shard-<s>` directories under a spill root; none when `root` is
/// not a directory.
std::vector<fs::path> spillShardDirs(const fs::path& root) {
  std::vector<fs::path> shards;
  if (!fs::is_directory(root)) return shards;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_directory() &&
        entry.path().filename().string().starts_with(kShardPrefix)) {
      shards.push_back(entry.path());
    }
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

} // namespace

// --- SegmentCursor --------------------------------------------------------

SegmentCursor::SegmentCursor(const fs::path& path, const SegmentMeta& meta,
                             std::uint64_t firstRecord,
                             std::uint64_t startOffset)
    : path_(path.string()),
      remaining_(meta.recordCount - firstRecord),
      expectChecksum_(meta.dataChecksum),
      runningChecksum_(kFnvBasis),
      verify_(firstRecord == 0) {
  in_.open(path, std::ios::binary);
  if (!in_) throw std::runtime_error("cannot open segment " + path_);
  in_.seekg(static_cast<std::streamoff>(startOffset));
  if (remaining_ > 0) {
    readNext();
  }
}

bool SegmentCursor::advance() {
  if (remaining_ == 0) {
    if (valid_ && verify_ && runningChecksum_ != expectChecksum_) {
      valid_ = false;
      throw std::runtime_error("segment data checksum mismatch: " + path_);
    }
    valid_ = false;
    return false;
  }
  readNext();
  return true;
}

void SegmentCursor::readNext() {
  unsigned char buf[net::kMaxRecordBytes];
  std::size_t size = 0;
  if (net::readRecord(in_, head_, /*withOrigin=*/true, buf, size) !=
      net::RecordStatus::Ok) {
    valid_ = false;
    throw std::runtime_error("torn record in segment " + path_);
  }
  // A full-file cursor folds the bytes it read into the data checksum, so
  // reading a segment to its end also verifies it.
  if (verify_) fnv1aBytes(runningChecksum_, buf, size);
  --remaining_;
  valid_ = true;
}

// --- SegmentReader --------------------------------------------------------

std::optional<SegmentMeta> SegmentReader::probe(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (size < kHeaderBytes + kSegmentFooterBytes) return std::nullopt;

  char magic[sizeof(kSegmentMagic)];
  in.seekg(0);
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kSegmentMagic, sizeof(magic)) != 0) {
    return std::nullopt;
  }

  unsigned char footer[kSegmentFooterBytes];
  in.seekg(static_cast<std::streamoff>(size - kSegmentFooterBytes));
  in.read(reinterpret_cast<char*>(footer), kSegmentFooterBytes);
  if (!in || std::memcmp(footer + kFooterPrefixBytes + 8, kSegmentFooterMagic,
                         sizeof(kSegmentFooterMagic)) != 0) {
    return std::nullopt;
  }

  SegmentMeta meta;
  meta.minTs = sim::SimTime{getLe<std::int64_t>(footer)};
  meta.maxTs = sim::SimTime{getLe<std::int64_t>(footer + 8)};
  meta.recordCount = getLe<std::uint64_t>(footer + 16);
  const auto indexCount = getLe<std::uint32_t>(footer + 24);
  const auto sourceCount = getLe<std::uint32_t>(footer + 28);
  meta.indexOffset = getLe<std::uint64_t>(footer + 32);
  meta.dataChecksum = getLe<std::uint64_t>(footer + 40);
  const auto metaChecksum = getLe<std::uint64_t>(footer + 48);

  // The block sizes must tile the file exactly; anything else is a torn
  // or foreign layout.
  const std::uint64_t metaBytes =
      std::uint64_t{indexCount} * kIndexEntryBytes +
      std::uint64_t{sourceCount} * kSourceEntryBytes;
  if (meta.indexOffset < kHeaderBytes ||
      meta.indexOffset + metaBytes + kSegmentFooterBytes != size) {
    return std::nullopt;
  }

  // The meta checksum covers the contiguous range [indexOffset, footer
  // checksum field): index block, source block, footer prefix.
  std::vector<unsigned char> block(metaBytes + kFooterPrefixBytes);
  in.seekg(static_cast<std::streamoff>(meta.indexOffset));
  in.read(reinterpret_cast<char*>(block.data()),
          static_cast<std::streamsize>(block.size()));
  if (!in) return std::nullopt;
  std::uint64_t check = kFnvBasis;
  fnv1aBytes(check, block.data(), block.size());
  if (check != metaChecksum) return std::nullopt;

  meta.sparse.reserve(indexCount);
  const unsigned char* p = block.data();
  for (std::uint32_t i = 0; i < indexCount; ++i, p += kIndexEntryBytes) {
    meta.sparse.push_back(SegmentIndexEntry{getLe<std::int64_t>(p),
                                            getLe<std::uint64_t>(p + 8),
                                            getLe<std::uint64_t>(p + 16)});
  }
  meta.sources.reserve(sourceCount);
  for (std::uint32_t i = 0; i < sourceCount; ++i, p += kSourceEntryBytes) {
    meta.sources.push_back(SegmentSourceCount{
        net::Ipv6Address{getLe<std::uint64_t>(p), getLe<std::uint64_t>(p + 8)},
        getLe<std::uint64_t>(p + 16)});
  }
  return meta;
}

SegmentReader::SegmentReader(fs::path path) : path_(std::move(path)) {
  auto meta = probe(path_);
  if (!meta) {
    throw std::runtime_error("invalid segment " + path_.string());
  }
  meta_ = std::move(*meta);
}

SegmentCursor SegmentReader::cursor(std::optional<sim::SimTime> from) const {
  // Last sparse entry strictly before `from`: every record before it is
  // <= its ts < from, so the scan to the first record with ts >= from is
  // bounded by one index stride.
  std::uint64_t rec = 0;
  std::uint64_t off = kHeaderBytes;
  if (from) {
    const auto it = std::partition_point(
        meta_.sparse.begin(), meta_.sparse.end(),
        [&](const SegmentIndexEntry& e) { return e.ts < from->millis(); });
    if (it != meta_.sparse.begin()) {
      rec = (it - 1)->record;
      off = (it - 1)->offset;
    }
  }
  SegmentCursor c{path_, meta_, rec, off};
  while (from && !c.empty() && c.head().ts < *from) c.advance();
  return c;
}

std::uint64_t SegmentReader::packetsFromSource(
    const net::Ipv6Address& addr) const {
  const auto it = std::partition_point(
      meta_.sources.begin(), meta_.sources.end(),
      [&](const SegmentSourceCount& s) { return s.addr < addr; });
  if (it == meta_.sources.end() || it->addr != addr) return 0;
  return it->count;
}

// --- SegmentStore ---------------------------------------------------------

SegmentStore::SegmentStore(SegmentStoreOptions options)
    : options_(std::move(options)) {
  fs::create_directories(options_.dir);
  recoverDir();
}

fs::path SegmentStore::segmentPath(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.v6tseg",
                static_cast<unsigned long long>(seq));
  return options_.dir / name;
}

void SegmentStore::recoverDir() {
  const StoreListing listing = listStore(options_.dir);
  // A `.tmp` is a spill the process died inside of; an unreadable sealed
  // name is bit rot or a torn rename. Both are moved aside — never
  // deleted, the operator may want the bytes — and never read again.
  const auto quarantine = [&](const fs::path& p) {
    fs::rename(p, fs::path{p.string() + ".quarantined"});
    ++recovery_.quarantined;
  };
  for (const fs::path& p : listing.partial) quarantine(p);
  segments_.reserve(listing.sealed.size());
  for (const auto& [seq, path] : listing.sealed) {
    if (!SegmentReader::probe(path)) {
      quarantine(path);
      continue;
    }
    segments_.emplace_back(path);
    sealedRecords_ += segments_.back().meta().recordCount;
    nextSeq_ = std::max(nextSeq_, seq + 1);
  }
  recovery_.sealedSegments = segments_.size();
  recovery_.durableRecords = sealedRecords_;
  if (options_.metrics != nullptr && recovery_.quarantined > 0) {
    options_.metrics->counter("capture.spill.quarantined_total")
        .inc(recovery_.quarantined);
  }
}

void SegmentStore::append(const net::Packet& p) {
  memtable_.push_back(p);
  if (options_.spillBytes > 0 && memtableBytes() >= options_.spillBytes) {
    spill();
  }
}

void SegmentStore::spill() {
  if (memtable_.empty()) return;
  std::optional<obs::Span> span;
  if (options_.metrics != nullptr) {
    span.emplace(*options_.metrics, "capture.spill.flush_seconds");
  }
  sortCanonicalRuns(memtable_);
  const std::uint64_t bytes =
      writeSegment(segmentPath(nextSeq_), memtable_, options_.indexStride,
                   options_.beforeSeal);
  segments_.emplace_back(segmentPath(nextSeq_));
  ++nextSeq_;
  sealedRecords_ += memtable_.size();
  if (options_.metrics != nullptr) {
    options_.metrics->counter("capture.spill.segments_total").inc();
    options_.metrics->counter("capture.spill.bytes_total").inc(bytes);
    options_.metrics->counter("capture.spill.records_total")
        .inc(memtable_.size());
    options_.metrics
        ->gauge("capture.spill.segments_high_water", obs::GaugeMode::Max)
        .set(static_cast<double>(segments_.size()));
  }
  memtable_.clear();
}

std::uint64_t SegmentStore::spilledBytes() const {
  std::uint64_t total = 0;
  for (const SegmentReader& seg : segments_) {
    total += static_cast<std::uint64_t>(fs::file_size(seg.path()));
  }
  return total;
}

// --- reads and the spill root --------------------------------------------

KWayMerge<SegmentCursor> mergeSegments(std::span<const SegmentReader> segments,
                                       std::optional<sim::SimTime> from,
                                       std::optional<net::Ipv6Address> source) {
  std::vector<SegmentCursor> cursors;
  cursors.reserve(segments.size());
  for (const SegmentReader& seg : segments) {
    // The source table is exact, so a zero count proves the segment holds
    // nothing from `source` — skipping it cannot change the filtered
    // stream.
    if (source && seg.packetsFromSource(*source) == 0) continue;
    cursors.push_back(seg.cursor(from));
  }
  return KWayMerge<SegmentCursor>{std::move(cursors)};
}

fs::path spillStoreDir(const fs::path& root, unsigned shard,
                       const std::string& telescope) {
  return root / (std::string{kShardPrefix} + std::to_string(shard)) /
         telescope;
}

void requireUnusedSpillRoot(const fs::path& root) {
  for (const fs::path& shard : spillShardDirs(root)) {
    for (const auto& store : fs::directory_iterator{shard}) {
      if (!store.is_directory()) continue;
      for (const auto& file : fs::directory_iterator{store.path()}) {
        if (file.path().filename().string().find(".v6tseg") !=
            std::string::npos) {
          throw std::runtime_error(
              "spill directory " + root.string() +
              " already holds segment files of an earlier run (" +
              file.path().string() + "); spill into an empty directory");
        }
      }
    }
  }
}

std::vector<SegmentReader> openSpilledSegments(const fs::path& root,
                                               const std::string& telescope) {
  const std::vector<fs::path> shards = spillShardDirs(root);
  if (shards.empty()) {
    throw std::runtime_error(root.string() +
                             " is not a spill root: it holds no " +
                             std::string{kShardPrefix} + "<s> directory");
  }
  std::vector<SegmentReader> segments;
  for (const fs::path& shard : shards) {
    const fs::path dir = shard / telescope;
    if (!fs::is_directory(dir)) {
      throw std::runtime_error("no telescope " + telescope + " in " +
                               shard.string());
    }
    for (const auto& [seq, path] : listStore(dir).sealed) {
      segments.emplace_back(path); // throws "invalid segment <path>"
    }
  }
  return segments;
}

} // namespace v6t::telescope
