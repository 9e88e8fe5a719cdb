// Split/merge determinism (DESIGN.md §13): a heavy source diced into
// session-block subtasks, and a heavy NIST session diced into
// Spectral/NonSpectral test-block subtasks, must produce results
// bitwise-identical to the unsplit run at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/addr_class.hpp"
#include "analysis/capture_index.hpp"
#include "analysis/fingerprint.hpp"
#include "analysis/nist.hpp"
#include "analysis/parallel.hpp"
#include "analysis/taxonomy.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {
namespace {

/// Adversarially skewed synthetic capture: one source holds ~90% of the
/// packets, spread over several sessions (periodic jumps past the
/// session timeout), the rest goes to a pool of light sources. A few
/// fixed payload patterns give the fingerprint stage clusters to find.
std::vector<net::Packet> skewedCapture(sim::Rng& rng, std::size_t total,
                                       unsigned lightSources) {
  std::vector<net::Packet> packets;
  packets.reserve(total);
  const net::Ipv6Address heavySrc{0x2001'0db8'dead'0000ULL, 1};
  std::int64_t now = 0;
  while (packets.size() < total) {
    now += 1 + static_cast<std::int64_t>(rng.below(2000));
    if (packets.size() % 1200 == 1199) now += 95 * 60 * 1000; // new session
    net::Packet p;
    p.ts = sim::SimTime{now};
    p.src = rng.below(10) != 0
                ? heavySrc
                : net::Ipv6Address{
                      0x2001'0db8'0000'0000ULL + rng.below(lightSources), 1};
    p.dst = net::Ipv6Address{0x2001'0db8'ffff'0000ULL, rng.next()};
    const std::uint64_t kind = rng.below(20);
    if (kind == 0) {
      p.payload = {0x45, 0x00, 0x00, 0x54, 0x13, 0x37};
    } else if (kind == 1) {
      p.payload = {0x45, 0x00, 0x00, 0x54, 0x13,
                   static_cast<std::uint8_t>(rng.below(4))};
    }
    packets.push_back(p);
  }
  return packets;
}

class SplitMergeTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    sim::Rng rng{20260806};
    packets_ = new std::vector<net::Packet>{skewedCapture(rng, 8000, 24)};
    sessions_ = new std::vector<telescope::Session>{telescope::sessionize(
        *packets_, telescope::SourceAgg::Addr128, sim::minutes(30))};
    index_ = new CaptureIndex{*packets_, *sessions_};
  }
  static void TearDownTestSuite() {
    delete index_;
    delete sessions_;
    delete packets_;
    index_ = nullptr;
    sessions_ = nullptr;
    packets_ = nullptr;
  }

  static std::vector<net::Packet>* packets_;
  static std::vector<telescope::Session>* sessions_;
  static CaptureIndex* index_;
};

std::vector<net::Packet>* SplitMergeTest::packets_ = nullptr;
std::vector<telescope::Session>* SplitMergeTest::sessions_ = nullptr;
CaptureIndex* SplitMergeTest::index_ = nullptr;

void expectTaxonomyEqual(const TaxonomyResult& got, const TaxonomyResult& ref,
                         const char* what) {
  ASSERT_EQ(got.profiles.size(), ref.profiles.size()) << what;
  for (std::size_t i = 0; i < ref.profiles.size(); ++i) {
    const ScannerProfile& g = got.profiles[i];
    const ScannerProfile& r = ref.profiles[i];
    EXPECT_EQ(g.source, r.source) << what << " profile " << i;
    EXPECT_EQ(g.sessionIdx, r.sessionIdx) << what << " profile " << i;
    EXPECT_EQ(g.temporal.cls, r.temporal.cls) << what << " profile " << i;
    EXPECT_EQ(g.temporal.period, r.temporal.period) << what;
    EXPECT_EQ(g.network, r.network) << what << " profile " << i;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(g.sessionsByAddrSel[c], r.sessionsByAddrSel[c])
          << what << " profile " << i << " class " << c;
    }
    // The type tally is not in PipelineResult::digest(), so the digest
    // comparisons elsewhere cannot see it.
    for (std::size_t t = 0; t < kAddressTypeCount; ++t) {
      EXPECT_EQ(g.targetTypes.count[t], r.targetTypes.count[t])
          << what << " profile " << i << " type "
          << toString(static_cast<AddressType>(t));
    }
  }
  ASSERT_EQ(got.sessionAddrSel.size(), ref.sessionAddrSel.size());
  for (std::size_t s = 0; s < ref.sessionAddrSel.size(); ++s) {
    EXPECT_EQ(got.sessionAddrSel[s], ref.sessionAddrSel[s])
        << what << " session " << s;
  }
}

TEST_F(SplitMergeTest, HeavySourceIsActuallySkewed) {
  std::uint64_t heaviest = 0;
  for (std::size_t i = 0; i < index_->sourceCount(); ++i) {
    heaviest = std::max(heaviest, index_->aggregatesOf(i).packets);
  }
  EXPECT_GT(heaviest, packets_->size() * 8 / 10);
  EXPECT_GT(index_->sourceCount(), 10u);
}

TEST_F(SplitMergeTest, ClassifySplitBitwiseEqualsUnsplit) {
  // Unsplit serial reference: threshold far above any source's cost.
  ParallelForStats refStats;
  const TaxonomyResult ref =
      classifyIndexed(*index_, nullptr, 1, &refStats, ~std::uint64_t{0});
  EXPECT_EQ(refStats.splits, 0u);
  // Every packet of a source is one of its targets, so the tallies the
  // split runs must match are not empty.
  for (std::size_t i = 0; i < ref.profiles.size(); ++i) {
    EXPECT_EQ(ref.profiles[i].targetTypes.total(),
              index_->aggregatesOf(i).packets)
        << "profile " << i;
  }

  // A split threshold of 256 forces the heavy source (and more) to dice.
  for (const unsigned threads : {1u, 2u, 8u, 16u}) {
    ParallelForStats stats;
    const TaxonomyResult got =
        classifyIndexed(*index_, nullptr, threads, &stats, 256);
    EXPECT_GT(stats.splits, 0u) << "threads=" << threads;
    expectTaxonomyEqual(got, ref, "split");
  }
}

TEST_F(SplitMergeTest, NistBlockMergeMatchesFullBattery) {
  sim::Rng rng{99};
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 128 + rng.below(4096);
    BitSequence bits(n);
    for (std::uint8_t& b : bits) b = static_cast<std::uint8_t>(rng.below(2));

    const NistSummary whole = runAllNistTests(bits);
    const NistSummary spectral = runNistTests(bits, NistBlock::Spectral);
    const NistSummary rest = runNistTests(bits, NistBlock::NonSpectral);
    NistSummary merged = rest;
    merged.spectral = spectral.spectral;

    // Bitwise: the split runs the very same test code on the very same
    // bits, so even the doubles must be identical, not just close.
    EXPECT_EQ(merged.frequency.pValue, whole.frequency.pValue);
    EXPECT_EQ(merged.runs.pValue, whole.runs.pValue);
    EXPECT_EQ(merged.spectral.pValue, whole.spectral.pValue);
    EXPECT_EQ(merged.cusumForward.pValue, whole.cusumForward.pValue);
    EXPECT_EQ(merged.cusumBackward.pValue, whole.cusumBackward.pValue);
  }
}

TEST_F(SplitMergeTest, FingerprintParallelBitwiseEqualsSerial) {
  const FingerprintResult ref = fingerprintSessions(*index_);
  for (const unsigned threads : {2u, 8u, 16u}) {
    ParallelForStats stats;
    const FingerprintResult got =
        fingerprintSessions(*index_, nullptr, threads, &stats);
    EXPECT_EQ(got.sessionTool, ref.sessionTool) << "threads=" << threads;
    EXPECT_EQ(got.clusterCount, ref.clusterCount);
    EXPECT_EQ(got.hopLimitAttributions, ref.hopLimitAttributions);
    EXPECT_EQ(got.payloadPackets, ref.payloadPackets);
    EXPECT_EQ(got.payloadSessions, ref.payloadSessions);
    EXPECT_EQ(got.payloadSources, ref.payloadSources);
    ASSERT_EQ(got.byTool.size(), ref.byTool.size());
    for (const auto& [tool, count] : ref.byTool) {
      ASSERT_TRUE(got.byTool.contains(tool));
      EXPECT_EQ(got.byTool.at(tool).scanners, count.scanners);
      EXPECT_EQ(got.byTool.at(tool).sessions, count.sessions);
    }
    EXPECT_FALSE(stats.items.empty());
  }
}

} // namespace
} // namespace v6t::analysis
