// Streaming windowed analysis vs the one-shot in-memory reference: the
// StreamingResult digest must be bitwise-identical at every spill budget
// and every thread count, with and without declared capture gaps
// (DESIGN.md §15). Also the agreement of the sessionizer's two record
// forms (summary and packet-index) that the whole construction rests on,
// and the spilled runner's contract with its spill directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/streaming.hpp"
#include "core/runner.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "telescope/capture_store.hpp"
#include "telescope/digest.hpp"
#include "telescope/segment_store.hpp"
#include "telescope/session.hpp"
#include "test_util.hpp"

namespace v6t::analysis {
namespace {

using telescope::SessionSummary;
using testutil::ScopedTempDir;

/// Synthetic multi-day scanner capture in canonical order: a small source
/// pool with one dominant source (a guaranteed heavy hitter), bursty
/// inter-arrivals with occasional silences beyond the session timeout, and
/// mixed payloads. Canonicalized through CaptureStore::mergeFrom — the
/// exact transform merged runner captures go through.
std::vector<net::Packet> scannerCapture(std::uint64_t seed, std::size_t n) {
  sim::Rng rng{seed};
  const net::Ipv6Address heavy{0x2001'0db8'00ff'0000ull, 1};
  std::vector<std::vector<net::Packet>> shards(1);
  std::int64_t ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pace = rng.below(100);
    if (pace < 70) {
      ts += static_cast<std::int64_t>(rng.below(30'000)); // burst
    } else if (pace < 95) {
      ts += static_cast<std::int64_t>(rng.below(600'000)); // minutes
    } else {
      // Silence beyond the 1h timeout: forces closed sessions mid-stream.
      ts += 3'600'000 + static_cast<std::int64_t>(rng.below(7'200'000));
    }
    net::Packet p;
    p.ts = sim::SimTime{ts};
    p.src = (rng.below(100) < 30)
                ? heavy
                : net::Ipv6Address{0x2001'0db8'0000'0000ull + rng.below(24),
                                   rng.below(3)};
    p.dst = net::Ipv6Address{0x2a00ull << 48, rng.next()};
    p.proto = static_cast<net::Protocol>(rng.below(3));
    p.srcPort = static_cast<std::uint16_t>(rng.below(65536));
    p.dstPort = static_cast<std::uint16_t>(rng.below(65536));
    p.hopLimit = static_cast<std::uint8_t>(64 + rng.below(64));
    p.srcAsn = net::Asn{static_cast<std::uint32_t>(64500 + rng.below(40))};
    p.originId = static_cast<std::uint32_t>(rng.below(4));
    p.originSeq = i;
    const std::size_t payloadLen = rng.below(3) == 0 ? rng.below(17) : 0;
    for (std::size_t b = 0; b < payloadLen; ++b) {
      p.payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
    }
    shards[0].push_back(p);
  }
  telescope::CaptureStore ref;
  ref.mergeFrom(std::move(shards));
  return ref.packets();
}

std::vector<net::Packet> dropGapPackets(
    std::vector<net::Packet> packets,
    const std::vector<std::pair<sim::SimTime, sim::SimTime>>& gaps) {
  std::erase_if(packets, [&](const net::Packet& p) {
    for (const auto& [start, end] : gaps) {
      if (p.ts >= start && p.ts < end) return true;
    }
    return false;
  });
  return packets;
}

/// A session table reduced to summaries (session-vector order), counting
/// payloads from the packets themselves rather than through
/// SessionSummary::add.
std::vector<SessionSummary> summarizeSessions(
    std::span<const telescope::Session> sessions,
    std::span<const net::Packet> packets) {
  std::vector<SessionSummary> out;
  out.reserve(sessions.size());
  for (const telescope::Session& s : sessions) {
    SessionSummary sum;
    sum.source = s.source;
    sum.start = s.start;
    sum.end = s.end;
    sum.packets = s.packetCount();
    for (std::uint32_t idx : s.packetIdx) {
      if (packets[idx].hasPayload()) ++sum.payloadPackets;
    }
    sum.firstAsn = packets[s.packetIdx.front()].srcAsn;
    out.push_back(sum);
  }
  return out;
}

// --- one-shot reference sanity -------------------------------------------

// The one-shot reference and foldSummaries aggregate per source
// independently (CaptureIndex rows against summary groups); over one
// summary set, the fold must equal the reference at every thread count.
TEST(Streaming, OneShotReferenceEqualsFoldAtEveryThreadCount) {
  const std::vector<net::Packet> packets = scannerCapture(7, 3000);
  const StreamingResult reference = analyzeOneShot(packets);
  EXPECT_EQ(reference.totalPackets, packets.size());
  EXPECT_FALSE(reference.sources.empty());
  EXPECT_FALSE(reference.heavyHitters.empty())
      << "the dominant source must cross the 10% threshold";
  EXPECT_EQ(reference.windows, 0u) << "one-shot has no windows";

  telescope::Sessionizer::Stats stats;
  const std::vector<telescope::Session> sessions = telescope::sessionize(
      packets, telescope::SourceAgg::Addr128, telescope::kSessionTimeout,
      &stats);
  const std::vector<SessionSummary> summaries =
      summarizeSessions(sessions, packets);
  for (const unsigned threads : {1u, 2u, 8u}) {
    StreamingOptions opts;
    opts.threads = threads;
    EXPECT_EQ(foldSummaries(summaries, packets.size(), stats, opts).digest(),
              reference.digest())
        << "fold diverged at " << threads << " threads";
  }
}

// --- windowed == one-shot ------------------------------------------------

TEST(Streaming, WindowedDigestMatchesOneShotAcrossThreads) {
  const std::vector<net::Packet> packets = scannerCapture(17, 3000);
  const StreamingResult reference = analyzeOneShot(packets);
  for (const unsigned threads : {1u, 2u, 8u}) {
    StreamingOptions opts;
    opts.threads = threads;
    StreamingAnalyzer analyzer{opts};
    for (const net::Packet& p : packets) analyzer.ingest(p);
    const StreamingResult result = analyzer.finish();
    EXPECT_EQ(result.digest(), reference.digest()) << "threads=" << threads;
    EXPECT_EQ(result.totalPackets, reference.totalPackets);
    EXPECT_EQ(result.sources.size(), reference.sources.size());
    EXPECT_EQ(result.heavyHitters.size(), reference.heavyHitters.size());
    EXPECT_GT(result.windows, 0u);
  }
}

TEST(Streaming, WindowReportsPartitionTheStream) {
  const std::vector<net::Packet> packets = scannerCapture(27, 2000);
  obs::Registry metrics;
  StreamingOptions opts;
  opts.metrics = &metrics;
  StreamingAnalyzer analyzer{opts};
  for (const net::Packet& p : packets) analyzer.ingest(p);
  const StreamingResult result = analyzer.finish();

  std::set<std::int64_t> windowsWithPackets;
  for (const net::Packet& p : packets) {
    windowsWithPackets.insert(p.ts.millis() / kStreamWindow.millis());
  }
  ASSERT_GT(windowsWithPackets.size(), 1u) << "multi-day capture";
  EXPECT_EQ(result.windows, windowsWithPackets.size())
      << "one window per 24 h slot that holds packets";
  const auto flat = metrics.flatten();
  EXPECT_EQ(flat.at("analysis.stream.windows_total"),
            static_cast<double>(result.windows));
  EXPECT_EQ(flat.at("analysis.stream.window_packets.sum"),
            static_cast<double>(result.totalPackets))
      << "window packet counts must partition the capture";
}

// --- spilled stream == one-shot (budgets x threads) ----------------------

TEST(Streaming, SpilledStreamMatchesOneShotAcrossBudgetsAndThreads) {
  const std::vector<net::Packet> packets = scannerCapture(37, 3000);
  const std::uint64_t referenceDigest = analyzeOneShot(packets).digest();
  // 0 = one segment, sealed by the final spill; tiny = a segment every
  // few dozen packets; medium = a handful of segments.
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{4096},
                                     std::uint64_t{64 * 1024}}) {
    ScopedTempDir dir;
    telescope::SegmentStoreOptions storeOptions;
    storeOptions.dir = dir.path();
    storeOptions.spillBytes = budget;
    telescope::SegmentStore store{storeOptions};
    for (const net::Packet& p : packets) store.append(p);
    store.spill();
    EXPECT_EQ(store.segmentCount() == 1, budget == 0) << "budget " << budget;
    for (const unsigned threads : {1u, 2u, 8u}) {
      StreamingOptions opts;
      opts.threads = threads;
      StreamingAnalyzer analyzer{opts};
      auto merge = telescope::mergeSegments(store.segments());
      analyzer.ingestAll(merge);
      EXPECT_EQ(analyzer.finish().digest(), referenceDigest)
          << "budget=" << budget << " threads=" << threads;
    }
  }
}

// --- capture gaps (fault-injected outages) -------------------------------

TEST(Streaming, CaptureGapsPreserveEquivalence) {
  constexpr std::int64_t kDay = 86'400'000;
  const std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps{
      {sim::SimTime{2 * kDay}, sim::SimTime{2 * kDay + 30 * 60'000}},
      {sim::SimTime{5 * kDay}, sim::SimTime{5 * kDay + 45 * 60'000}},
  };
  // The telescope was dark during the gaps: those packets never existed in
  // the capture, and the analysis is told why.
  const std::vector<net::Packet> packets =
      dropGapPackets(scannerCapture(47, 4000), gaps);
  StreamingOptions base;
  base.captureGaps = gaps;
  const StreamingResult reference = analyzeOneShot(packets, base);
  EXPECT_GT(reference.sessionStats.closedByGap, 0u)
      << "the gap-split path must actually fire for this capture";

  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{8192}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      ScopedTempDir dir;
      telescope::SegmentStoreOptions storeOptions;
      storeOptions.dir = dir.path();
      storeOptions.spillBytes = budget;
      telescope::SegmentStore store{storeOptions};
      for (const net::Packet& p : packets) store.append(p);
      store.spill();
      StreamingOptions opts;
      opts.threads = threads;
      opts.captureGaps = gaps;
      StreamingAnalyzer analyzer{opts};
      auto merge = telescope::mergeSegments(store.segments());
      analyzer.ingestAll(merge);
      const StreamingResult result = analyzer.finish();
      EXPECT_EQ(result.digest(), reference.digest())
          << "budget=" << budget << " threads=" << threads;
      EXPECT_EQ(result.sessionStats.closedByGap,
                reference.sessionStats.closedByGap);
    }
  }
}

// --- summary form == packet-index form -----------------------------------

std::vector<SessionSummary> canonicalized(std::vector<SessionSummary> v) {
  std::sort(v.begin(), v.end(),
            [](const SessionSummary& a, const SessionSummary& b) {
              return std::tuple{a.start.millis(), a.source.addr,
                                a.end.millis(), a.packets} <
                     std::tuple{b.start.millis(), b.source.addr,
                                b.end.millis(), b.packets};
            });
  return v;
}

TEST(Streaming, SummaryFormMatchesIndexForm) {
  constexpr std::int64_t kDay = 86'400'000;
  const std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps{
      {sim::SimTime{3 * kDay}, sim::SimTime{3 * kDay + 20 * 60'000}},
  };
  const std::vector<net::Packet> packets =
      dropGapPackets(scannerCapture(57, 3000), gaps);

  telescope::Sessionizer::Stats refStats;
  const std::vector<telescope::Session> sessions = telescope::sessionize(
      packets, telescope::SourceAgg::Addr128, telescope::kSessionTimeout,
      &refStats, gaps);
  const std::vector<SessionSummary> expected =
      canonicalized(summarizeSessions(sessions, packets));

  telescope::BasicSessionizer<SessionSummary> sessionizer{
      telescope::SourceAgg::Addr128};
  sessionizer.setCaptureGaps(gaps);
  std::vector<SessionSummary> got;
  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    sessionizer.offer(packets[i], i);
    if (i % 257 == 0) {
      // Drains at arbitrary points must not change what is produced.
      auto drained = sessionizer.drainClosed();
      got.insert(got.end(), drained.begin(), drained.end());
    }
  }
  auto tail = sessionizer.finish();
  got.insert(got.end(), tail.begin(), tail.end());
  got = canonicalized(std::move(got));

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].source, expected[i].source) << "summary " << i;
    EXPECT_EQ(got[i].start, expected[i].start) << "summary " << i;
    EXPECT_EQ(got[i].end, expected[i].end) << "summary " << i;
    EXPECT_EQ(got[i].packets, expected[i].packets) << "summary " << i;
    EXPECT_EQ(got[i].payloadPackets, expected[i].payloadPackets)
        << "summary " << i;
    EXPECT_EQ(got[i].firstAsn, expected[i].firstAsn) << "summary " << i;
  }
  const telescope::Sessionizer::Stats& stats = sessionizer.stats();
  EXPECT_EQ(stats.opened, refStats.opened);
  EXPECT_EQ(stats.closedByTimeout, refStats.closedByTimeout);
  EXPECT_EQ(stats.closedByGap, refStats.closedByGap);
  EXPECT_EQ(stats.openAtFinish, refStats.openAtFinish);
}

// --- foldSummaries is order-insensitive ----------------------------------

TEST(Streaming, FoldIsInvariantToSummaryArrivalOrder) {
  const std::vector<net::Packet> packets = scannerCapture(67, 2500);
  telescope::Sessionizer::Stats stats;
  const std::vector<telescope::Session> sessions = telescope::sessionize(
      packets, telescope::SourceAgg::Addr128, telescope::kSessionTimeout,
      &stats);
  std::vector<SessionSummary> summaries = summarizeSessions(sessions, packets);
  StreamingOptions opts;
  const std::uint64_t reference =
      foldSummaries(summaries, packets.size(), stats, opts).digest();
  sim::Rng rng{68};
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = summaries.size(); i > 1; --i) {
      std::swap(summaries[i - 1], summaries[rng.below(i)]);
    }
    EXPECT_EQ(foldSummaries(summaries, packets.size(), stats, opts).digest(),
              reference)
        << "shuffle round " << round;
  }
}

// --- the spilled runner and its spill directory --------------------------

/// tests/data/tiny.conf: a world that simulates in well under a second.
core::RunnerConfig tinyRun() {
  core::RunnerConfig config;
  config.experiment.seed = 7;
  config.experiment.sourceScale = 0.05;
  config.experiment.volumeScale = 0.004;
  config.experiment.baseline = sim::weeks(2);
  config.experiment.cycle = sim::weeks(2);
  config.experiment.splits = 2;
  return config;
}

/// Packet count and CaptureStore::digest of a merged segment stream.
std::pair<std::uint64_t, std::uint64_t> countAndDigest(
    telescope::KWayMerge<telescope::SegmentCursor> merge) {
  std::uint64_t count = 0;
  std::uint64_t h = telescope::kFnvBasis;
  for (; !merge.done(); merge.pop()) {
    telescope::fnv1aPacket(h, merge.head());
    ++count;
  }
  return {count, h};
}

TEST(Streaming, SpilledRunLeavesTheWholeCaptureOnDisk) {
  core::ExperimentRunner inMemory{tinyRun()};
  inMemory.run();

  ScopedTempDir dir;
  core::RunnerConfig config = tinyRun();
  config.experiment.threads = 2;
  config.experiment.captureSpillDir = dir.path().string();
  config.experiment.captureSpillBytes = 65536;
  core::ExperimentRunner spilled{config};
  spilled.run();

  // Both production reads: the runner's stream, and the spill root read
  // back as v6t_serve --spill-dir reads it. Only sealed segments survive
  // the process, so they must hold every captured packet of both shards.
  for (std::size_t t = 0; t < 4; ++t) {
    const std::string& name = inMemory.telescopeName(t);
    const telescope::CaptureStore& reference = inMemory.capture(t);
    ASSERT_GT(reference.packetCount(), 0u) << name;
    const std::pair<std::uint64_t, std::uint64_t> want{
        reference.packetCount(), reference.digest()};
    EXPECT_EQ(countAndDigest(spilled.streamCapture(t)), want) << name;
    EXPECT_EQ(countAndDigest(telescope::mergeSegments(
                  telescope::openSpilledSegments(dir.path(), name))),
              want)
        << name;
  }
}

TEST(Streaming, SpilledRunRefusesADirectoryHoldingSegments) {
  namespace fs = std::filesystem;
  ScopedTempDir dir;
  const fs::path storeDir = telescope::spillStoreDir(dir.path(), 0, "T3");
  {
    telescope::SegmentStoreOptions options;
    options.dir = storeDir;
    telescope::SegmentStore earlier{options};
    for (const net::Packet& p : scannerCapture(77, 50)) earlier.append(p);
    earlier.spill();
  }
  const auto listing = [&] {
    std::set<std::string> names;
    for (const auto& entry : fs::directory_iterator(storeDir)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  };
  const std::set<std::string> before = listing();
  ASSERT_EQ(before.size(), 1u);

  // Adopting the earlier segment would count its packets in this run.
  core::RunnerConfig config = tinyRun();
  config.experiment.captureSpillDir = dir.path().string();
  core::ExperimentRunner runner{config};
  EXPECT_THROW(runner.run(), std::runtime_error);
  EXPECT_EQ(runner.stats().totalEvents, 0u) << "refused before simulating";
  EXPECT_EQ(listing(), before) << "the earlier run's files are kept";
}

} // namespace
} // namespace v6t::analysis
