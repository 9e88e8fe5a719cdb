// The determinism harness for the parallel analysis pipeline: the full
// report digest (taxonomy + heavy hitters + NIST battery + fingerprints)
// must be bitwise-identical at every thread count, with and without
// active capture-gap fault windows; the shared CaptureIndex must agree
// with the session table it memoizes; and the gap-aware sessionizer's
// merged-window binary search must match a linear scan over the raw,
// unmerged windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "analysis/capture_index.hpp"
#include "analysis/heavy_hitter.hpp"
#include "analysis/parallel.hpp"
#include "analysis/pipeline.hpp"
#include "core/runner.hpp"
#include "core/summary.hpp"
#include "fault/spec.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {
namespace {

core::ExperimentConfig smallConfig() {
  core::ExperimentConfig config;
  config.seed = 7;
  config.sourceScale = 0.05;
  config.volumeScale = 0.004;
  config.baseline = sim::weeks(4);
  config.splits = 6;
  config.routeObjectAt = sim::weeks(6);
  return config;
}

constexpr unsigned kThreadCounts[] = {1, 2, 3, 8, 16};

class PipelineTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    core::RunnerConfig config;
    config.experiment = smallConfig();
    runner_ = new core::ExperimentRunner{config};
    runner_->run();
    summary_ = new core::ExperimentSummary{
        core::ExperimentSummary::compute(*runner_)};
    results_ = new std::map<unsigned, PipelineResult>;
    for (unsigned threads : kThreadCounts) {
      PipelineOptions opts;
      opts.threads = threads;
      opts.nistBattery = true;
      opts.rdns = &runner_->rdns();
      (*results_)[threads] = Pipeline::analyze(
          runner_->capture(core::T1).packets(),
          summary_->telescope(core::T1).sessions128, &runner_->schedule(),
          opts);
    }
  }
  static void TearDownTestSuite() {
    delete results_;
    delete summary_;
    delete runner_;
    results_ = nullptr;
    summary_ = nullptr;
    runner_ = nullptr;
  }

  static std::span<const net::Packet> packets() {
    return runner_->capture(core::T1).packets();
  }
  static std::span<const telescope::Session> sessions() {
    return summary_->telescope(core::T1).sessions128;
  }

  static core::ExperimentRunner* runner_;
  static core::ExperimentSummary* summary_;
  static std::map<unsigned, PipelineResult>* results_;
};

core::ExperimentRunner* PipelineTest::runner_ = nullptr;
core::ExperimentSummary* PipelineTest::summary_ = nullptr;
std::map<unsigned, PipelineResult>* PipelineTest::results_ = nullptr;

TEST_F(PipelineTest, ProducesNonTrivialReport) {
  const PipelineResult& r = results_->at(1);
  EXPECT_GT(r.taxonomy.profiles.size(), 100u);
  EXPECT_EQ(r.taxonomy.sessionAddrSel.size(), sessions().size());
  EXPECT_FALSE(r.fingerprint.sessionTool.empty());
  EXPECT_FALSE(r.nist.empty());
}

TEST_F(PipelineTest, DigestIsThreadCountInvariant) {
  const std::uint64_t reference = results_->at(1).digest();
  for (unsigned threads : kThreadCounts) {
    EXPECT_EQ(results_->at(threads).digest(), reference)
        << "threads=" << threads;
  }
}

TEST_F(PipelineTest, NistSlotsAreThreadCountInvariant) {
  // The digest already covers this; spelled out field-by-field so a
  // failure names the first diverging session instead of a hash.
  const PipelineResult& ref = results_->at(1);
  for (unsigned threads : kThreadCounts) {
    const PipelineResult& got = results_->at(threads);
    ASSERT_EQ(got.nist.size(), ref.nist.size());
    for (std::size_t i = 0; i < ref.nist.size(); ++i) {
      EXPECT_EQ(got.nist[i].sessionIdx, ref.nist[i].sessionIdx);
      EXPECT_EQ(got.nist[i].iid.frequency.pValue,
                ref.nist[i].iid.frequency.pValue);
      EXPECT_EQ(got.nist[i].subnet.cusumBackward.pValue,
                ref.nist[i].subnet.cusumBackward.pValue);
    }
  }
}

TEST_F(PipelineTest, MatchesLegacyEntryPoints) {
  const PipelineResult& r = results_->at(8);

  const TaxonomyResult legacyTaxonomy =
      classifyCapture(packets(), sessions(), &runner_->schedule());
  ASSERT_EQ(r.taxonomy.profiles.size(), legacyTaxonomy.profiles.size());
  for (std::size_t i = 0; i < legacyTaxonomy.profiles.size(); ++i) {
    EXPECT_EQ(r.taxonomy.profiles[i].source, legacyTaxonomy.profiles[i].source);
    EXPECT_EQ(r.taxonomy.profiles[i].temporal.cls,
              legacyTaxonomy.profiles[i].temporal.cls);
    EXPECT_EQ(r.taxonomy.profiles[i].network,
              legacyTaxonomy.profiles[i].network);
    EXPECT_EQ(r.taxonomy.profiles[i].sessionIdx,
              legacyTaxonomy.profiles[i].sessionIdx);
  }

  // The legacy heavy-hitter entry point sessionizes the capture itself;
  // T1's summary sessions come from the identical sessionizer run.
  const std::vector<HeavyHitter> legacyHitters =
      findHeavyHitters(packets(), 10.0);
  ASSERT_EQ(r.heavyHitters.size(), legacyHitters.size());
  for (std::size_t i = 0; i < legacyHitters.size(); ++i) {
    EXPECT_EQ(r.heavyHitters[i].source, legacyHitters[i].source);
    EXPECT_EQ(r.heavyHitters[i].packets, legacyHitters[i].packets);
    EXPECT_EQ(r.heavyHitters[i].sessions, legacyHitters[i].sessions);
    EXPECT_EQ(r.heavyHitters[i].firstDay, legacyHitters[i].firstDay);
    EXPECT_EQ(r.heavyHitters[i].lastDay, legacyHitters[i].lastDay);
  }
  const HeavyHitterImpact legacyImpact =
      heavyHitterImpact(packets(), sessions(), legacyHitters);
  EXPECT_EQ(r.heavyHitterImpact.packets, legacyImpact.packets);
  EXPECT_EQ(r.heavyHitterImpact.sessions, legacyImpact.sessions);

  const FingerprintResult legacyFingerprint = fingerprintSessions(
      packets(), sessions(), &runner_->rdns());
  EXPECT_EQ(r.fingerprint.sessionTool, legacyFingerprint.sessionTool);
  EXPECT_EQ(r.fingerprint.clusterCount, legacyFingerprint.clusterCount);
  EXPECT_EQ(r.fingerprint.payloadPackets, legacyFingerprint.payloadPackets);
}

TEST_F(PipelineTest, IndexAgreesWithSessionTable) {
  const CaptureIndex index{packets(), sessions()};

  // Every session appears under exactly one source, in vector order.
  std::vector<bool> seen(sessions().size(), false);
  std::uint64_t aggregatePackets = 0;
  for (std::size_t i = 0; i < index.sourceCount(); ++i) {
    const std::span<const std::uint32_t> sessionIdx = index.sessionsOf(i);
    const std::span<const sim::SimTime> starts = index.sessionStartsOf(i);
    ASSERT_EQ(sessionIdx.size(), starts.size());
    ASSERT_FALSE(sessionIdx.empty());
    std::uint64_t sourcePackets = 0;
    for (std::size_t k = 0; k < sessionIdx.size(); ++k) {
      const std::uint32_t si = sessionIdx[k];
      ASSERT_LT(si, sessions().size());
      EXPECT_FALSE(seen[si]) << "session " << si << " listed twice";
      seen[si] = true;
      const telescope::Session& s = sessions()[si];
      EXPECT_EQ(s.source, index.source(i));
      EXPECT_EQ(starts[k], s.start);
      sourcePackets += s.packetCount();

      const CaptureIndex::TargetColumns lanes = index.columnsOf(si);
      ASSERT_EQ(lanes.hi.size(), s.packetCount());
      ASSERT_EQ(lanes.lo.size(), s.packetCount());
      std::uint32_t payloadPackets = 0;
      std::uint32_t firstPayload = CaptureIndex::kNoPayload;
      for (std::size_t p = 0; p < s.packetIdx.size(); ++p) {
        const net::Packet& pkt = packets()[s.packetIdx[p]];
        EXPECT_EQ(net::Ipv6Address(lanes.hi[p], lanes.lo[p]), pkt.dst);
        if (!pkt.payload.empty()) {
          ++payloadPackets;
          if (firstPayload == CaptureIndex::kNoPayload) {
            firstPayload = s.packetIdx[p];
          }
        }
      }
      EXPECT_EQ(index.payloadPacketsOf(si), payloadPackets);
      EXPECT_EQ(index.firstPayloadOf(si), firstPayload);
    }
    const CaptureIndex::SourceAggregates& agg = index.aggregatesOf(i);
    EXPECT_EQ(agg.packets, sourcePackets);
    const telescope::Session& first = sessions()[sessionIdx.front()];
    const telescope::Session& last = sessions()[sessionIdx.back()];
    EXPECT_EQ(agg.firstDay, first.start.dayIndex());
    EXPECT_EQ(agg.lastDay, last.end.dayIndex());
    EXPECT_EQ(agg.asn, packets()[first.packetIdx.front()].srcAsn);
    aggregatePackets += sourcePackets;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  // Addr128 sessions partition the capture.
  EXPECT_EQ(index.sessionizedPackets(), packets().size());
  EXPECT_EQ(aggregatePackets, packets().size());
}

TEST_F(PipelineTest, GapAwareRunIsThreadCountInvariant) {
  fault::FaultSpec faults;
  // Overlapping and touching windows on T1 exercise the sessionizer's
  // window normalization; the global gap hits all four telescopes.
  faults.gaps.push_back(
      {0, sim::kEpoch + sim::weeks(5), sim::kEpoch + sim::weeks(5) + sim::hours(8)});
  faults.gaps.push_back(
      {0, sim::kEpoch + sim::weeks(5) + sim::hours(4),
       sim::kEpoch + sim::weeks(5) + sim::hours(16)});
  faults.gaps.push_back(
      {-1, sim::kEpoch + sim::weeks(9), sim::kEpoch + sim::weeks(9) + sim::hours(6)});

  const std::array<const telescope::CaptureStore*, 4> captures =
      runner_->captures();
  std::array<std::string, 4> names;
  for (std::size_t i = 0; i < 4; ++i) names[i] = runner_->telescopeName(i);

  const core::ExperimentSummary reference =
      core::ExperimentSummary::compute(captures, names, faults, 1);
  std::uint64_t referenceDigest = 0;
  for (unsigned threads : kThreadCounts) {
    const core::ExperimentSummary gapped =
        core::ExperimentSummary::compute(captures, names, faults, threads);
    for (std::size_t t = 0; t < 4; ++t) {
      const auto& ref = reference.telescope(t).sessions128;
      const auto& got = gapped.telescope(t).sessions128;
      ASSERT_EQ(got.size(), ref.size()) << "telescope " << t;
      for (std::size_t s = 0; s < ref.size(); ++s) {
        EXPECT_EQ(got[s].packetIdx, ref[s].packetIdx);
      }
    }
    PipelineOptions opts;
    opts.threads = threads;
    opts.nistBattery = true;
    const PipelineResult result = Pipeline::analyze(
        captures[core::T1]->packets(), gapped.telescope(core::T1).sessions128,
        &runner_->schedule(), opts);
    if (threads == 1) {
      referenceDigest = result.digest();
      // The gap windows must actually split sessions, or this test would
      // silently degrade into the plain thread-invariance one.
      EXPECT_NE(referenceDigest, results_->at(1).digest());
    } else {
      EXPECT_EQ(result.digest(), referenceDigest) << "threads=" << threads;
    }
  }
}

TEST_F(PipelineTest, ParallelForVisitsEveryIndexOnce) {
  for (unsigned threads : {1u, 3u, 8u}) {
    std::vector<std::atomic<std::uint32_t>> visits(257);
    const ParallelForStats stats = parallelFor(
        visits.size(), threads, [&](unsigned, std::size_t i) {
          visits[i].fetch_add(1, std::memory_order_relaxed);
        });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1u) << "index " << i;
    }
    std::uint64_t items = 0;
    for (std::uint64_t n : stats.items) items += n;
    EXPECT_EQ(items, visits.size());
    EXPECT_EQ(stats.items.size(), stats.busySeconds.size());
  }
}

TEST_F(PipelineTest, CostEstimatesMonotoneInPacketCount) {
  const CaptureIndex index{packets(), sessions()};
  // Session cost: strictly monotone in the session's packet count.
  for (std::uint32_t s = 0; s + 1 < sessions().size(); ++s) {
    for (std::uint32_t t = s + 1; t < std::min<std::uint32_t>(
                                      s + 64, static_cast<std::uint32_t>(
                                                  sessions().size()));
         ++t) {
      const std::uint64_t ps = index.sessionPacketCountOf(s);
      const std::uint64_t pt = index.sessionPacketCountOf(t);
      if (ps < pt) {
        EXPECT_LT(index.nistCostOf(s), index.nistCostOf(t));
      } else if (ps == pt) {
        EXPECT_EQ(index.nistCostOf(s), index.nistCostOf(t));
      } else {
        EXPECT_GT(index.nistCostOf(s), index.nistCostOf(t));
      }
    }
  }
  // Source cost: monotone in packets for equal session counts, and
  // never below either component.
  for (std::size_t i = 0; i < index.sourceCount(); ++i) {
    const std::uint64_t cost = index.classifyCostOf(i);
    EXPECT_GE(cost, index.aggregatesOf(i).packets);
    EXPECT_GE(cost, 32 * static_cast<std::uint64_t>(index.sessionCountOf(i)));
    for (std::size_t j = i + 1; j < std::min(i + 64, index.sourceCount());
         ++j) {
      if (index.sessionCountOf(i) != index.sessionCountOf(j)) continue;
      const std::uint64_t pi = index.aggregatesOf(i).packets;
      const std::uint64_t pj = index.aggregatesOf(j).packets;
      if (pi < pj) {
        EXPECT_LT(cost, index.classifyCostOf(j));
      } else if (pi > pj) {
        EXPECT_GT(cost, index.classifyCostOf(j));
      }
    }
  }
}

TEST_F(PipelineTest, WorkerStatsFoldIntoImbalanceAndSchedCounters) {
  obs::Registry registry;
  const Pipeline pipeline{packets(), sessions(), &registry};
  PipelineOptions opts;
  opts.threads = 8;
  opts.nistBattery = true;
  opts.minSplitCost = 512; // force splits on this small corpus
  (void)pipeline.run(&runner_->schedule(), opts);

  // Per-worker items fold through the shard-registry path; every
  // dispatched stage contributes at least one task per source/session,
  // so the total must cover the source count.
  EXPECT_GE(registry.value("analysis.worker.items_total").value_or(0),
            static_cast<double>(pipeline.index().sourceCount()));
  // busy-seconds sum and the imbalance ratio derived from it: the ratio
  // is max/mean over workers, so it is >= 1 whenever any work was done.
  EXPECT_GT(registry.value("analysis.worker.busy_seconds").value_or(0), 0.0);
  EXPECT_GE(registry.value("analysis.worker_imbalance_ratio").value_or(0),
            1.0);
  // Scheduler counters: splitting must have happened at this threshold.
  EXPECT_GT(registry.value("analysis.sched.splits_total").value_or(0), 0.0);
}

// --- adversarial-skew digest sweep ---------------------------------------

/// One source holding ~90% of the packets — the capture shape the
/// cost-aware scheduler exists for — over gap-window faults that split
/// its sessions. The digest must be invariant across thread counts and
/// split thresholds.
TEST(PipelineAdversarial, SkewedCaptureDigestInvariant) {
  sim::Rng rng{20260807};
  std::vector<net::Packet> packets;
  const net::Ipv6Address heavySrc{0x2001'0db8'beef'0000ULL, 7};
  std::int64_t now = 0;
  while (packets.size() < 12'000) {
    now += 1 + static_cast<std::int64_t>(rng.below(1500));
    net::Packet p;
    p.ts = sim::SimTime{now};
    p.src = rng.below(10) != 0
                ? heavySrc
                : net::Ipv6Address{0x2001'0db8'0000'0000ULL + rng.below(32),
                                   1};
    p.dst = net::Ipv6Address{0x2001'0db8'ffff'0000ULL, rng.next()};
    packets.push_back(p);
  }
  // Active fault-injection gap windows: a few outages inside the horizon
  // force session closes mid-stream for the heavy source.
  std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps;
  for (int g = 1; g <= 3; ++g) {
    const std::int64_t at = now * g / 4;
    gaps.emplace_back(sim::SimTime{at}, sim::SimTime{at + 20 * 60 * 1000});
  }
  const std::vector<telescope::Session> sessions = telescope::sessionize(
      packets, telescope::SourceAgg::Addr128, sim::minutes(30), nullptr,
      gaps);

  std::uint64_t reference = 0;
  bool first = true;
  for (const std::uint64_t minSplitCost :
       {std::uint64_t{256}, kDefaultMinSplitCost, ~std::uint64_t{0}}) {
    for (const unsigned threads : kThreadCounts) {
      PipelineOptions opts;
      opts.threads = threads;
      opts.minSplitCost = minSplitCost;
      opts.nistBattery = true;
      const PipelineResult result =
          Pipeline::analyze(packets, sessions, nullptr, opts);
      if (first) {
        reference = result.digest();
        first = false;
        EXPECT_FALSE(result.nist.empty());
        EXPECT_GT(result.taxonomy.profiles.size(), 10u);
      } else {
        EXPECT_EQ(result.digest(), reference)
            << "threads=" << threads << " minSplitCost=" << minSplitCost;
      }
    }
  }
}

// --- gap-window property test -------------------------------------------

// Reference sessionizer: linear scan over the RAW (unsorted, unmerged)
// gap windows with the original overlap predicate. The production
// Sessionizer normalizes windows and binary-searches; both must close
// exactly the same sessions.
std::vector<telescope::Session> oracleSessionize(
    std::span<const net::Packet> packets, sim::Duration timeout,
    const std::vector<std::pair<sim::SimTime, sim::SimTime>>& gaps,
    telescope::Sessionizer::Stats* statsOut) {
  struct Open {
    telescope::Session session;
    sim::SimTime lastSeen;
  };
  std::map<net::Ipv6Address, Open> open;
  std::vector<telescope::Session> done;
  telescope::Sessionizer::Stats stats;
  auto spansGap = [&](sim::SimTime lastSeen, sim::SimTime now) {
    return std::any_of(gaps.begin(), gaps.end(), [&](const auto& g) {
      return lastSeen < g.second && now >= g.first && now > lastSeen;
    });
  };
  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    const net::Packet& p = packets[i];
    auto it = open.find(p.src);
    if (it != open.end()) {
      Open& o = it->second;
      const bool gapped = spansGap(o.lastSeen, p.ts);
      if (p.ts - o.lastSeen <= timeout && !gapped) {
        o.session.end = p.ts;
        o.session.packetIdx.push_back(i);
        o.lastSeen = p.ts;
        continue;
      }
      done.push_back(std::move(o.session));
      open.erase(it);
      if (gapped) {
        ++stats.closedByGap;
      } else {
        ++stats.closedByTimeout;
      }
    }
    ++stats.opened;
    Open fresh;
    fresh.session.source =
        telescope::SourceKey{p.src, telescope::SourceAgg::Addr128};
    fresh.session.start = p.ts;
    fresh.session.end = p.ts;
    fresh.session.packetIdx = {i};
    fresh.lastSeen = p.ts;
    open.emplace(p.src, std::move(fresh));
  }
  stats.openAtFinish = open.size();
  for (auto& [key, o] : open) done.push_back(std::move(o.session));
  std::stable_sort(done.begin(), done.end(),
                   [](const telescope::Session& a, const telescope::Session& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.source.addr < b.source.addr;
                   });
  if (statsOut != nullptr) *statsOut = stats;
  return done;
}

TEST(SessionizerGapProperty, BinarySearchMatchesLinearOracle) {
  sim::Rng rng{20260805};
  for (int trial = 0; trial < 40; ++trial) {
    // A handful of sources emitting at random inter-arrival gaps that
    // straddle the timeout, over a horizon dense with outage windows.
    const sim::Duration timeout = sim::minutes(30);
    std::vector<net::Packet> packets;
    const unsigned sourceCount = 2 + static_cast<unsigned>(rng.below(5));
    std::int64_t now = 0;
    while (packets.size() < 400) {
      now += static_cast<std::int64_t>(rng.below(8 * 60 * 1000));
      net::Packet p;
      p.ts = sim::SimTime{now};
      p.src = net::Ipv6Address{0x2001'0db8'0000'0000ULL + rng.below(sourceCount),
                               1};
      p.dst = net::Ipv6Address{0x2001'0db8'ffff'0000ULL, rng.next()};
      packets.push_back(std::move(p));
    }
    // Raw windows: random spans, deliberately unsorted, frequently
    // overlapping or touching, some zero-length (empty after merge).
    std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps;
    const unsigned gapCount = 1 + static_cast<unsigned>(rng.below(12));
    for (unsigned g = 0; g < gapCount; ++g) {
      const auto start = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(now)));
      const auto len = static_cast<std::int64_t>(rng.below(45 * 60 * 1000));
      gaps.emplace_back(sim::SimTime{start}, sim::SimTime{start + len});
    }

    telescope::Sessionizer::Stats gotStats;
    const std::vector<telescope::Session> got = telescope::sessionize(
        packets, telescope::SourceAgg::Addr128, timeout, &gotStats, gaps);
    telescope::Sessionizer::Stats wantStats;
    const std::vector<telescope::Session> want =
        oracleSessionize(packets, timeout, gaps, &wantStats);

    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_EQ(got[s].source, want[s].source) << "trial " << trial;
      EXPECT_EQ(got[s].start, want[s].start);
      EXPECT_EQ(got[s].end, want[s].end);
      EXPECT_EQ(got[s].packetIdx, want[s].packetIdx);
    }
    EXPECT_EQ(gotStats.opened, wantStats.opened) << "trial " << trial;
    EXPECT_EQ(gotStats.closedByGap, wantStats.closedByGap);
    EXPECT_EQ(gotStats.closedByTimeout, wantStats.closedByTimeout);
    EXPECT_EQ(gotStats.openAtFinish, wantStats.openAtFinish);
  }
}

} // namespace
} // namespace v6t::analysis
