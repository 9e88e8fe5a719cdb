// v6tseg disk format and the out-of-core SegmentStore: record round-trip
// at the payload-length corners, malformed-file rejection, sparse-index
// lookups against a linear-scan oracle, spill-schedule independence, crash
// recovery at the segment-flush boundary, and the read-only opener of a
// spill root (DESIGN.md §15, docs/FORMATS.md). Every read goes through
// mergeSegments over sealed segments, after a final spill().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "telescope/capture_store.hpp"
#include "telescope/digest.hpp"
#include "telescope/segment_store.hpp"
#include "test_util.hpp"

namespace v6t::telescope {
namespace {

namespace fs = std::filesystem;
using testutil::ScopedTempDir;

// Time-ordered packet with a unique (originId, originSeq) merge key; the
// source pool is small so per-segment source tables carry multiplicity.
net::Packet makePacket(sim::Rng& rng, std::int64_t ts, std::uint64_t seq,
                       std::size_t payloadLen) {
  net::Packet p;
  p.ts = sim::SimTime{ts};
  p.src = net::Ipv6Address{0x2001'0db8'0000'0000ull | rng.below(16),
                           rng.below(4)};
  p.dst = net::Ipv6Address{0x2a00'0000'0000'0000ull, rng.next()};
  p.proto = static_cast<net::Protocol>(rng.below(3));
  p.srcPort = static_cast<std::uint16_t>(rng.below(65536));
  p.dstPort = static_cast<std::uint16_t>(rng.below(65536));
  p.icmpType = static_cast<std::uint8_t>(rng.below(256));
  p.icmpCode = static_cast<std::uint8_t>(rng.below(256));
  p.hopLimit = static_cast<std::uint8_t>(rng.below(256));
  p.srcAsn = net::Asn{static_cast<std::uint32_t>(rng.below(70000))};
  p.originId = static_cast<std::uint32_t>(rng.below(8));
  p.originSeq = seq;
  for (std::size_t i = 0; i < payloadLen; ++i) {
    p.payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
  return p;
}

/// Time-ordered capture of `n` packets; equal-timestamp runs appear in
/// arbitrary (originId, originSeq) order, so canonicalization is load-
/// bearing, exactly as in a real shard.
std::vector<net::Packet> makeCapture(std::uint64_t seed, std::size_t n) {
  sim::Rng rng{seed};
  std::vector<net::Packet> out;
  std::int64_t ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.below(3) != 0) ts += static_cast<std::int64_t>(rng.below(5000));
    out.push_back(makePacket(rng, ts, i, rng.below(17)));
  }
  return out;
}

bool samePacket(const net::Packet& a, const net::Packet& b) {
  unsigned char bufA[net::kMaxRecordBytes];
  unsigned char bufB[net::kMaxRecordBytes];
  const std::size_t lenA = net::encodeRecord(bufA, a, /*withOrigin=*/true);
  const std::size_t lenB = net::encodeRecord(bufB, b, /*withOrigin=*/true);
  return lenA == lenB && std::equal(bufA, bufA + lenA, bufB);
}

std::vector<net::Packet> drain(KWayMerge<SegmentCursor> merge) {
  std::vector<net::Packet> out;
  for (; !merge.done(); merge.pop()) out.push_back(merge.head());
  return out;
}

/// CaptureStore::digest of a packet sequence.
std::uint64_t digestOf(const std::vector<net::Packet>& packets) {
  std::uint64_t h = kFnvBasis;
  for (const net::Packet& p : packets) fnv1aPacket(h, p);
  return h;
}

/// Reference canonical order: CaptureStore::mergeFrom over one shard — the
/// exact transform the in-memory runner applies.
CaptureStore canonicalReference(const std::vector<net::Packet>& packets) {
  CaptureStore ref;
  ref.mergeFrom({packets});
  return ref;
}

// --- round-trip ----------------------------------------------------------

TEST(SegmentStore, RoundTripsPayloadLengthCorners) {
  // 0 (no payload), 1 (minimum), 12 (typical probe), 16 (PayloadBuf
  // capacity == the format maximum).
  const std::size_t kLengths[] = {0, 1, 12, 16};
  ScopedTempDir dir;
  sim::Rng rng{11};
  std::vector<net::Packet> in;
  SegmentStoreOptions options;
  options.dir = dir.path();
  options.spillBytes = 0; // explicit spill only
  SegmentStore store{options};
  std::int64_t ts = 0;
  std::uint64_t seq = 0;
  for (int round = 0; round < 8; ++round) {
    for (const std::size_t len : kLengths) {
      net::Packet p = makePacket(rng, ts, seq++, len);
      ASSERT_EQ(p.payload.size(), len);
      in.push_back(p);
      store.append(p);
      ts += 1000;
    }
  }
  store.spill();
  EXPECT_EQ(store.segmentCount(), 1u);
  EXPECT_EQ(store.recordCount(), in.size());

  const std::vector<net::Packet> out = drain(mergeSegments(store.segments()));
  ASSERT_EQ(out.size(), in.size());
  // Strictly increasing ts here, so canonical order == append order.
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(samePacket(in[i], out[i])) << "record " << i;
    EXPECT_EQ(out[i].payload.size(), in[i].payload.size()) << "record " << i;
  }
}

TEST(SegmentStore, MetaDescribesContents) {
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(21, 300);
  SegmentStoreOptions options;
  options.dir = dir.path();
  options.spillBytes = 0;
  options.indexStride = 32;
  SegmentStore store{options};
  for (const net::Packet& p : packets) store.append(p);
  store.spill();

  ASSERT_EQ(store.segments().size(), 1u);
  const SegmentMeta& meta = store.segments()[0].meta();
  EXPECT_EQ(meta.recordCount, packets.size());
  EXPECT_EQ(meta.minTs, packets.front().ts);
  EXPECT_EQ(meta.maxTs, packets.back().ts);
  // One sparse entry per stride, covering record 0.
  ASSERT_FALSE(meta.sparse.empty());
  EXPECT_EQ(meta.sparse.front().record, 0u);
  EXPECT_EQ(meta.sparse.size(), (packets.size() + 31) / 32);
  // The source table partitions the records.
  std::uint64_t tableTotal = 0;
  for (const SegmentSourceCount& s : meta.sources) tableTotal += s.count;
  EXPECT_EQ(tableTotal, packets.size());
  EXPECT_TRUE(std::is_sorted(
      meta.sources.begin(), meta.sources.end(),
      [](const auto& a, const auto& b) { return a.addr < b.addr; }));
}

// --- malformed files -----------------------------------------------------

TEST(SegmentStore, ProbeRejectsTruncatedFiles) {
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(31, 200);
  SegmentStoreOptions options;
  options.dir = dir.path();
  options.spillBytes = 0;
  SegmentStore store{options};
  for (const net::Packet& p : packets) store.append(p);
  store.spill();
  const fs::path seg = store.segments()[0].path();
  const std::uint64_t size = fs::file_size(seg);
  ASSERT_TRUE(SegmentReader::probe(seg).has_value());

  // Every truncation point kills the file: mid-footer, mid-metadata,
  // mid-records, header-only, empty.
  for (const std::uint64_t keep :
       {size - 1, size - kSegmentFooterBytes / 2, size - kSegmentFooterBytes,
        size / 2, std::uint64_t{8}, std::uint64_t{0}}) {
    const fs::path copy = dir.file("trunc.v6tseg");
    fs::copy_file(seg, copy, fs::copy_options::overwrite_existing);
    fs::resize_file(copy, keep);
    EXPECT_FALSE(SegmentReader::probe(copy).has_value())
        << "accepted a file truncated to " << keep << " of " << size;
  }
}

TEST(SegmentStore, ProbeRejectsBitFlippedMetadata) {
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(41, 200);
  SegmentStoreOptions options;
  options.dir = dir.path();
  options.spillBytes = 0;
  SegmentStore store{options};
  for (const net::Packet& p : packets) store.append(p);
  store.spill();
  const fs::path seg = store.segments()[0].path();
  const std::uint64_t size = fs::file_size(seg);

  const auto flipAt = [&](std::uint64_t offset) {
    const fs::path copy = dir.file("flip.v6tseg");
    fs::copy_file(seg, copy, fs::copy_options::overwrite_existing);
    std::fstream f{copy, std::ios::in | std::ios::out | std::ios::binary};
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
    f.close();
    return copy;
  };

  // Header magic, footer magic, and the checksummed metadata block.
  EXPECT_FALSE(SegmentReader::probe(flipAt(2)).has_value());
  EXPECT_FALSE(SegmentReader::probe(flipAt(size - 3)).has_value());
  EXPECT_FALSE(SegmentReader::probe(flipAt(size - kSegmentFooterBytes + 4))
                   .has_value());
}

TEST(SegmentStore, FullScanDetectsBitFlippedRecordData) {
  // A flip inside the record area leaves the metadata block intact, so
  // probe() accepts the file — the data checksum at the end of a full
  // cursor pass is what catches it.
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(51, 200);
  SegmentStoreOptions options;
  options.dir = dir.path();
  options.spillBytes = 0;
  SegmentStore store{options};
  for (const net::Packet& p : packets) store.append(p);
  store.spill();
  const fs::path seg = store.segments()[0].path();

  {
    std::fstream f{seg, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(100); // mid-record, well past the 8-byte header
    char byte = 0;
    f.seekg(100);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(100);
    f.write(&byte, 1);
  }
  const auto meta = SegmentReader::probe(seg);
  ASSERT_TRUE(meta.has_value()) << "metadata must still parse";
  SegmentReader reader{seg};
  SegmentCursor cursor = reader.cursor();
  EXPECT_THROW(
      {
        if (!cursor.empty()) {
          while (cursor.advance()) {
          }
        }
      },
      std::runtime_error);
}

// --- sparse index vs linear oracle ---------------------------------------

TEST(SegmentStore, LowerBoundMatchesLinearScanOracle) {
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(61, 1200);
  SegmentStoreOptions options;
  options.dir = dir.path();
  options.spillBytes = 0;
  options.indexStride = 16; // force many sparse entries
  SegmentStore store{options};
  for (const net::Packet& p : packets) store.append(p);
  store.spill();
  ASSERT_EQ(store.segments().size(), 1u);
  const SegmentReader& reader = store.segments()[0];

  const std::vector<net::Packet> canonical =
      drain(mergeSegments(store.segments()));
  ASSERT_EQ(canonical.size(), packets.size());

  sim::Rng rng{62};
  std::vector<std::int64_t> queries{-1, 0, canonical.back().ts.millis(),
                                    canonical.back().ts.millis() + 1};
  for (int i = 0; i < 200; ++i) {
    queries.push_back(
        static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(
            canonical.back().ts.millis() + 2))));
    // Exact existing timestamps too (duplicates are common in the input).
    queries.push_back(canonical[rng.below(canonical.size())].ts.millis());
  }
  for (const std::int64_t q : queries) {
    // Oracle: first canonical record with ts >= q, by linear scan.
    std::size_t oracle = 0;
    while (oracle < canonical.size() &&
           canonical[oracle].ts.millis() < q) {
      ++oracle;
    }
    SegmentCursor cursor = reader.cursor(sim::SimTime{q});
    if (oracle == canonical.size()) {
      EXPECT_TRUE(cursor.empty()) << "query " << q;
      continue;
    }
    ASSERT_FALSE(cursor.empty()) << "query " << q;
    EXPECT_TRUE(samePacket(cursor.head(), canonical[oracle]))
        << "query " << q << ": wrong first record";
  }
}

TEST(SegmentStore, PacketsFromSourceMatchesLinearScanOracle) {
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(71, 900);
  SegmentStoreOptions options;
  options.dir = dir.path();
  options.spillBytes = 4096; // several sealed segments
  SegmentStore store{options};
  for (const net::Packet& p : packets) store.append(p);
  store.spill();
  ASSERT_GE(store.segmentCount(), 2u);

  std::vector<net::Ipv6Address> probes;
  for (std::uint64_t lo = 0; lo < 4; ++lo) {
    for (std::uint64_t hi = 0; hi < 16; ++hi) {
      probes.push_back(
          net::Ipv6Address{0x2001'0db8'0000'0000ull | hi, lo});
    }
  }
  probes.push_back(net::Ipv6Address{0xdeadull, 0xbeefull}); // never seen
  for (const net::Ipv6Address& addr : probes) {
    std::uint64_t oracle = 0;
    for (const net::Packet& p : packets) {
      if (p.src == addr) ++oracle;
    }
    std::uint64_t tables = 0;
    for (const SegmentReader& seg : store.segments()) {
      tables += seg.packetsFromSource(addr);
    }
    EXPECT_EQ(tables, oracle) << addr.toString();
    // The source-pruned merge keeps every segment that holds the source.
    std::uint64_t merged = 0;
    for (const net::Packet& p :
         drain(mergeSegments(store.segments(), std::nullopt, addr))) {
      if (p.src == addr) ++merged;
    }
    EXPECT_EQ(merged, oracle) << addr.toString();
  }
}

TEST(SegmentStore, RangedMergeEqualsFilteredFullDumpByteForByte) {
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(65, 1500);
  SegmentStoreOptions options;
  options.dir = dir.path();
  options.spillBytes = 8192; // several sealed segments
  options.indexStride = 32;
  SegmentStore store{options};
  for (const net::Packet& p : packets) store.append(p);
  store.spill();
  ASSERT_GE(store.segmentCount(), 2u);

  const std::vector<net::Packet> canonical =
      drain(mergeSegments(store.segments()));
  const std::int64_t lastTs = canonical.back().ts.millis();

  sim::Rng rng{66};
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges{
      {0, lastTs + 1}, {-5, lastTs + 10}, {lastTs + 1, lastTs + 2}};
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(lastTs + 2)));
    const auto b = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(lastTs + 2)));
    ranges.emplace_back(std::min(a, b), std::max(a, b) + 1);
  }
  for (const auto& [from, to] : ranges) {
    // Reference: the full canonical dump filtered to [from, to).
    std::ostringstream want;
    {
      net::CaptureWriter writer{want};
      for (const net::Packet& p : canonical) {
        if (p.ts.millis() >= from && p.ts.millis() < to) writer.write(p);
      }
    }
    // Ranged path, exactly as v6t_run --dump-captures --from/--to drives
    // it: sparse-index lower bound for `from`, early stop at `to`.
    std::ostringstream got;
    {
      net::CaptureWriter writer{got};
      auto merge = mergeSegments(store.segments(), sim::SimTime{from});
      for (; !merge.done(); merge.pop()) {
        if (merge.head().ts.millis() >= to) break;
        writer.write(merge.head());
      }
    }
    EXPECT_EQ(got.str(), want.str()) << "range [" << from << "," << to << ")";
  }
}

TEST(SegmentStore, SourceMergeEqualsFilteredFullDumpByteForByte) {
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(83, 1200);
  SegmentStoreOptions options;
  options.dir = dir.path();
  options.spillBytes = 8192; // several sealed segments
  SegmentStore store{options};
  for (const net::Packet& p : packets) store.append(p);
  store.spill();
  ASSERT_GE(store.segmentCount(), 2u);

  const std::vector<net::Packet> canonical =
      drain(mergeSegments(store.segments()));
  std::vector<net::Ipv6Address> probes;
  for (std::uint64_t lo = 0; lo < 4; ++lo) {
    for (std::uint64_t hi = 0; hi < 16; ++hi) {
      probes.push_back(net::Ipv6Address{0x2001'0db8'0000'0000ull | hi, lo});
    }
  }
  probes.push_back(net::Ipv6Address{0xdeadull, 0xbeefull}); // never seen
  for (const net::Ipv6Address& addr : probes) {
    // Reference: the full canonical dump post-filtered to the source.
    std::ostringstream want;
    {
      net::CaptureWriter writer{want};
      for (const net::Packet& p : canonical) {
        if (p.src == addr) writer.write(p);
      }
    }
    // Pruned path, exactly as v6t_run --dump-captures --source drives it:
    // the merge skips sourceless segments, the caller filters per record.
    std::ostringstream got;
    {
      net::CaptureWriter writer{got};
      for (auto merge = mergeSegments(store.segments(), std::nullopt, addr);
           !merge.done(); merge.pop()) {
        if (merge.head().src == addr) writer.write(merge.head());
      }
    }
    EXPECT_EQ(got.str(), want.str()) << addr.toString();
  }

  // Ranged + source composes: same contract with a --from lower bound.
  const std::int64_t mid = canonical[canonical.size() / 2].ts.millis();
  const net::Ipv6Address addr{0x2001'0db8'0000'0003ull, 1};
  std::ostringstream want;
  {
    net::CaptureWriter writer{want};
    for (const net::Packet& p : canonical) {
      if (p.src == addr && p.ts.millis() >= mid) writer.write(p);
    }
  }
  std::ostringstream got;
  {
    net::CaptureWriter writer{got};
    for (auto merge = mergeSegments(store.segments(), sim::SimTime{mid}, addr);
         !merge.done(); merge.pop()) {
      if (merge.head().src == addr) writer.write(merge.head());
    }
  }
  EXPECT_EQ(got.str(), want.str());
}

// --- spill-schedule independence (property test) -------------------------

TEST(SegmentStore, RandomSpillSchedulesYieldByteIdenticalCapture) {
  const std::vector<net::Packet> packets = makeCapture(81, 2000);
  const CaptureStore reference = canonicalReference(packets);
  const std::uint64_t referenceDigest = reference.digest();

  for (std::uint64_t schedule = 0; schedule < 12; ++schedule) {
    ScopedTempDir dir;
    sim::Rng rng{1000 + schedule};
    SegmentStoreOptions options;
    options.dir = dir.path();
    // Budget sweep: only the final spill / tiny (spill every few packets) /
    // medium.
    options.spillBytes =
        (schedule % 3 == 0) ? 0 : (schedule % 3 == 1) ? 2048 : 64 * 1024;
    options.indexStride = 1 + rng.below(64);
    SegmentStore store{options};
    for (const net::Packet& p : packets) {
      store.append(p);
      // Random explicit spills on top of the automatic budget-driven ones.
      if (rng.below(200) == 0) store.spill();
    }
    store.spill();
    EXPECT_EQ(store.sealedRecords(), packets.size());
    const std::vector<net::Packet> streamed =
        drain(mergeSegments(store.segments()));
    EXPECT_EQ(digestOf(streamed), referenceDigest)
        << "schedule " << schedule << " diverged from the in-memory digest";
    ASSERT_EQ(streamed.size(), reference.packets().size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      ASSERT_TRUE(samePacket(streamed[i], reference.packets()[i]))
          << "schedule " << schedule << " record " << i;
    }
  }
}

// --- crash recovery ------------------------------------------------------

TEST(SegmentStore, CrashAtFlushBoundaryQuarantinesAndReplaysToReference) {
  const std::vector<net::Packet> packets = makeCapture(91, 1500);
  const std::uint64_t referenceDigest = canonicalReference(packets).digest();
  constexpr std::uint64_t kBudget = 8192;

  // The seals of an uninterrupted run; the store may die at any of them.
  std::size_t runSeals = 0;
  {
    ScopedTempDir dir;
    SegmentStoreOptions options;
    options.dir = dir.path();
    options.spillBytes = kBudget;
    options.beforeSeal = [&](const fs::path&) { ++runSeals; };
    SegmentStore store{options};
    for (const net::Packet& p : packets) store.append(p);
  }
  ASSERT_GE(runSeals, 3u);

  for (std::size_t crashAt = 1; crashAt <= runSeals; ++crashAt) {
    ScopedTempDir dir;
    std::size_t seals = 0;
    {
      SegmentStoreOptions options;
      options.dir = dir.path();
      options.spillBytes = kBudget;
      // Crash seam: die at this flush, after the segment was written but
      // truncated mid-file — a torn write at the worst moment.
      options.beforeSeal = [&](const fs::path& tmpPath) {
        if (++seals == crashAt) {
          fs::resize_file(tmpPath, fs::file_size(tmpPath) / 2);
          throw std::runtime_error{"injected crash at segment flush"};
        }
      };
      SegmentStore store{options};
      std::size_t appended = 0;
      try {
        for (const net::Packet& p : packets) {
          store.append(p);
          ++appended;
        }
        FAIL() << "crash seam never fired at seal " << crashAt;
      } catch (const std::runtime_error&) {
        EXPECT_LT(appended, packets.size());
      }
      // The store object is abandoned here, like a killed process.
    }
    ASSERT_EQ(seals, crashAt);

    // Reopen: the torn .tmp is quarantined (kept, renamed), the segments
    // sealed before it are adopted, and the watermark says exactly how
    // many appends are durable.
    SegmentStoreOptions options;
    options.dir = dir.path();
    options.spillBytes = kBudget;
    SegmentStore recovered{options};
    const SegmentStore::Recovery& rec = recovered.recovery();
    EXPECT_EQ(rec.sealedSegments, crashAt - 1) << "crash at seal " << crashAt;
    EXPECT_EQ(rec.quarantined, 1u) << "crash at seal " << crashAt;
    EXPECT_EQ(rec.durableRecords == 0, crashAt == 1)
        << "crash at seal " << crashAt;
    ASSERT_LT(rec.durableRecords, packets.size());
    std::size_t quarantinedFiles = 0;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      if (entry.path().string().ends_with(".quarantined")) ++quarantinedFiles;
    }
    EXPECT_EQ(quarantinedFiles, 1u) << "crash at seal " << crashAt;

    // Spills drain the whole memtable, so the sealed segments hold exactly
    // the first durableRecords appends: replay the rest, seal, and the
    // recovered store must reach the reference digest bit for bit.
    for (std::size_t i = rec.durableRecords; i < packets.size(); ++i) {
      recovered.append(packets[i]);
    }
    recovered.spill();
    EXPECT_EQ(recovered.sealedRecords(), packets.size())
        << "crash at seal " << crashAt;
    EXPECT_EQ(digestOf(drain(mergeSegments(recovered.segments()))),
              referenceDigest)
        << "crash at seal " << crashAt;
  }
}

TEST(SegmentStore, ReopenQuarantinesCorruptSealedSegment) {
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(101, 400);
  {
    SegmentStoreOptions options;
    options.dir = dir.path();
    options.spillBytes = 8192;
    SegmentStore store{options};
    for (const net::Packet& p : packets) store.append(p);
    store.spill();
    ASSERT_GE(store.segmentCount(), 2u);
  }
  // Corrupt the footer of the last sealed segment.
  fs::path victim;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".v6tseg" &&
        (victim.empty() || entry.path() > victim)) {
      victim = entry.path();
    }
  }
  ASSERT_FALSE(victim.empty());
  fs::resize_file(victim, fs::file_size(victim) - 7);

  SegmentStoreOptions options;
  options.dir = dir.path();
  SegmentStore recovered{options};
  EXPECT_EQ(recovered.recovery().quarantined, 1u);
  EXPECT_FALSE(fs::exists(victim)) << "corrupt segment left in place";
  EXPECT_TRUE(fs::exists(victim.string() + ".quarantined"))
      << "quarantine must preserve the bytes for post-mortem";
  // What remains is still a valid, readable prefix of the appends.
  EXPECT_EQ(recovered.recovery().durableRecords, recovered.recordCount());
  EXPECT_GT(recovered.recordCount(), 0u);
  EXPECT_LT(recovered.recordCount(), packets.size());
  const std::vector<net::Packet> rest =
      drain(mergeSegments(recovered.segments()));
  EXPECT_EQ(rest.size(), recovered.recordCount());
}

// --- the spill root ------------------------------------------------------

TEST(SegmentStore, SpillRootOpenerRenamesNothingAndRefusesBadInput) {
  ScopedTempDir dir;
  const std::vector<net::Packet> packets = makeCapture(111, 1200);
  // Two shards, each appending every other packet, as the runner's shards
  // each capture a slice of the population.
  for (unsigned shard = 0; shard < 2; ++shard) {
    SegmentStoreOptions options;
    options.dir = spillStoreDir(dir.path(), shard, "T1");
    options.spillBytes = 8192;
    SegmentStore store{options};
    for (std::size_t i = shard; i < packets.size(); i += 2) {
      store.append(packets[i]);
    }
    store.spill();
    ASSERT_GE(store.segmentCount(), 2u);
  }
  const fs::path store0 = spillStoreDir(dir.path(), 0, "T1");
  // Leftovers of a writer: a spill that never sealed, a quarantined file.
  std::ofstream{store0 / "seg-000099.v6tseg.tmp"} << "torn";
  std::ofstream{store0 / "seg-000098.v6tseg.quarantined"} << "rot";
  const auto listing = [&] {
    std::vector<std::string> names;
    for (const auto& entry : fs::recursive_directory_iterator(dir.path())) {
      names.push_back(entry.path().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> before = listing();

  const std::vector<net::Packet> merged =
      drain(mergeSegments(openSpilledSegments(dir.path(), "T1")));
  EXPECT_EQ(digestOf(merged), canonicalReference(packets).digest());
  EXPECT_EQ(listing(), before) << "a reader renamed or removed a file";

  const auto refusal = [](const fs::path& root, const std::string& name) {
    try {
      (void)openSpilledSegments(root, name);
    } catch (const std::runtime_error& e) {
      return std::string{e.what()};
    }
    return std::string{"(opened)"};
  };
  EXPECT_NE(refusal(dir.path(), "T9").find("no telescope T9"),
            std::string::npos)
      << refusal(dir.path(), "T9");
  EXPECT_NE(refusal(store0, "T1").find("not a spill root"), std::string::npos)
      << "a bare store directory must be refused: " << refusal(store0, "T1");

  const fs::path victim = store0 / "seg-000001.v6tseg";
  fs::resize_file(victim, fs::file_size(victim) - 7);
  EXPECT_NE(refusal(dir.path(), "T1").find(victim.string()),
            std::string::npos)
      << refusal(dir.path(), "T1");
  EXPECT_TRUE(fs::exists(victim)) << "a reader must not quarantine";
}

} // namespace
} // namespace v6t::telescope
