// The determinism-equivalence harness for the sharded runner: the merged
// result of an N-shard run must be bitwise-identical to the 1-shard run of
// the same config, for every N. Capture digests cover every packet field,
// so a single flipped bit anywhere in 10^5+ packets fails the suite; on
// top of that the session tables, distinct-source counts, and the
// taxonomy's class histograms are compared as independent witnesses.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "analysis/taxonomy.hpp"
#include "core/runner.hpp"
#include "core/summary.hpp"

namespace v6t::core {
namespace {

ExperimentConfig smallConfig() {
  ExperimentConfig config;
  config.seed = 7;
  config.sourceScale = 0.05;
  config.volumeScale = 0.004;
  config.baseline = sim::weeks(4);
  config.splits = 6;
  config.routeObjectAt = sim::weeks(6);
  return config;
}

constexpr unsigned kShardCounts[] = {1, 2, 4, 8};

struct RunResult {
  std::unique_ptr<ExperimentRunner> runner;
  std::unique_ptr<ExperimentSummary> summary;
  std::unique_ptr<analysis::TaxonomyResult> taxonomy;
};

class ParallelEquivalenceTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    results_ = new std::map<unsigned, RunResult>;
    for (unsigned threads : kShardCounts) {
      RunnerConfig config;
      config.experiment = smallConfig();
      config.experiment.threads = threads;
      RunResult result;
      result.runner = std::make_unique<ExperimentRunner>(config);
      result.runner->run();
      result.summary = std::make_unique<ExperimentSummary>(
          ExperimentSummary::compute(*result.runner));
      // Taxonomy over T1, the telescope the split schedule drives.
      result.taxonomy = std::make_unique<analysis::TaxonomyResult>(
          analysis::classifyCapture(result.runner->capture(T1).packets(),
                                    result.summary->telescope(T1).sessions128,
                                    &result.runner->schedule()));
      (*results_)[threads] = std::move(result);
    }
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }

  static const RunResult& runOf(unsigned threads) {
    return results_->at(threads);
  }

  static std::map<unsigned, RunResult>* results_;
};

std::map<unsigned, RunResult>* ParallelEquivalenceTest::results_ = nullptr;

TEST_F(ParallelEquivalenceTest, SerialRunProducesTraffic) {
  const ExperimentRunner& serial = *runOf(1).runner;
  EXPECT_GT(serial.stats().packetsMerged, 1000u);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_GT(serial.capture(t).packetCount(), 0u) << "telescope " << t;
  }
}

TEST_F(ParallelEquivalenceTest, ShardsPartitionThePopulation) {
  for (unsigned threads : kShardCounts) {
    const RunnerStats& stats = runOf(threads).runner->stats();
    ASSERT_EQ(stats.shards.size(), threads);
    std::size_t scanners = 0;
    for (const ShardStats& shard : stats.shards) scanners += shard.scanners;
    EXPECT_EQ(scanners, runOf(threads).runner->populationSize());
    if (threads > 1) {
      // Round-robin assignment: shard sizes differ by at most one.
      std::size_t lo = scanners, hi = 0;
      for (const ShardStats& shard : stats.shards) {
        lo = std::min(lo, shard.scanners);
        hi = std::max(hi, shard.scanners);
      }
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

TEST_F(ParallelEquivalenceTest, CaptureDigestsAreShardCountInvariant) {
  for (std::size_t t = 0; t < 4; ++t) {
    const std::uint64_t reference = runOf(1).runner->capture(t).digest();
    for (unsigned threads : kShardCounts) {
      EXPECT_EQ(runOf(threads).runner->capture(t).digest(), reference)
          << "telescope " << t << ", threads=" << threads;
    }
  }
}

TEST_F(ParallelEquivalenceTest, PacketAndSourceCountsMatch) {
  for (unsigned threads : kShardCounts) {
    for (std::size_t t = 0; t < 4; ++t) {
      const telescope::CaptureStore& refCapture = runOf(1).runner->capture(t);
      const telescope::CaptureStore& gotCapture =
          runOf(threads).runner->capture(t);
      EXPECT_EQ(gotCapture.packetCount(), refCapture.packetCount());
      const telescope::CaptureStats ref =
          telescope::captureStats(refCapture.packets());
      const telescope::CaptureStats got =
          telescope::captureStats(gotCapture.packets());
      EXPECT_EQ(got.sources128, ref.sources128);
      EXPECT_EQ(got.sources64, ref.sources64);
      EXPECT_EQ(got.asns, ref.asns);
      EXPECT_EQ(got.destinations, ref.destinations);
      EXPECT_EQ(got.weekly, ref.weekly);
    }
  }
}

TEST_F(ParallelEquivalenceTest, SessionTablesMatch) {
  for (unsigned threads : kShardCounts) {
    for (std::size_t t = 0; t < 4; ++t) {
      const TelescopeSummary& ref = runOf(1).summary->telescope(t);
      const TelescopeSummary& got = runOf(threads).summary->telescope(t);
      ASSERT_EQ(got.sessions128.size(), ref.sessions128.size())
          << "telescope " << t << ", threads=" << threads;
      ASSERT_EQ(got.sessions64.size(), ref.sessions64.size());
      for (std::size_t s = 0; s < ref.sessions128.size(); ++s) {
        EXPECT_EQ(got.sessions128[s].source, ref.sessions128[s].source);
        EXPECT_EQ(got.sessions128[s].start, ref.sessions128[s].start);
        EXPECT_EQ(got.sessions128[s].end, ref.sessions128[s].end);
        // Packet indices point into the canonical merged capture, so even
        // the per-session packet membership must be identical.
        EXPECT_EQ(got.sessions128[s].packetIdx, ref.sessions128[s].packetIdx);
      }
    }
  }
}

TEST_F(ParallelEquivalenceTest, TaxonomyCountsMatch) {
  const analysis::TaxonomyResult& reference = *runOf(1).taxonomy;
  for (unsigned threads : kShardCounts) {
    const analysis::TaxonomyResult& got = *runOf(threads).taxonomy;
    for (auto temporal :
         {analysis::TemporalClass::OneOff, analysis::TemporalClass::Periodic,
          analysis::TemporalClass::Intermittent}) {
      EXPECT_EQ(got.scannersOf(temporal), reference.scannersOf(temporal))
          << "threads=" << threads;
      EXPECT_EQ(got.sessionsOf(temporal), reference.sessionsOf(temporal));
    }
    for (auto netsel : {analysis::NetworkSelection::SinglePrefix,
                        analysis::NetworkSelection::SizeIndependent,
                        analysis::NetworkSelection::SizeDependent,
                        analysis::NetworkSelection::Inconsistent}) {
      EXPECT_EQ(got.scannersOf(netsel), reference.scannersOf(netsel))
          << "threads=" << threads;
    }
  }
}

TEST_F(ParallelEquivalenceTest, HitlistListingsMatch) {
  // Every shard's hitlist replays the same script with the same keyed lags;
  // the runner reports shard 0's, which must not depend on the shard count.
  const auto& reference = runOf(1).runner->hitlistListings();
  ASSERT_FALSE(reference.empty());
  for (unsigned threads : kShardCounts) {
    EXPECT_EQ(runOf(threads).runner->hitlistListings(), reference)
        << "threads=" << threads;
  }
}

TEST_F(ParallelEquivalenceTest, WindowStatsMatchAcrossPeriods) {
  const ExperimentRunner& serial = *runOf(1).runner;
  const Period baseline{sim::kEpoch,
                        sim::kEpoch + serial.config().experiment.baseline};
  const Period split{baseline.to, serial.experimentEnd()};
  for (unsigned threads : kShardCounts) {
    const RunResult& run = runOf(threads);
    for (std::size_t t = 0; t < 4; ++t) {
      for (const Period& period : {baseline, split}) {
        const auto ref = runOf(1).summary->windowStats(
            serial.capture(t), t, period);
        const auto got = run.summary->windowStats(
            run.runner->capture(t), t, period);
        EXPECT_EQ(got.packets, ref.packets);
        EXPECT_EQ(got.sources128, ref.sources128);
        EXPECT_EQ(got.sessions128, ref.sessions128);
        EXPECT_EQ(got.asns, ref.asns);
      }
    }
  }
}

} // namespace
} // namespace v6t::core
