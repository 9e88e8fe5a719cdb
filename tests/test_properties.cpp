// Cross-cutting property tests: fuzzed serialization, engine stress
// against a reference model, aggregation-monotonicity invariants, and
// window-accounting consistency.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <sstream>

#include "core/summary.hpp"
#include "fault/spec.hpp"
#include "net/pcap.hpp"
#include "net/prefix_table.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "telescope/session.hpp"

namespace v6t {
namespace {

// ------------------------------------------------------------ pcap fuzz

TEST(PcapFuzz, TruncationNeverCrashesAndNeverFabricatesRecords) {
  sim::Rng rng{101};
  std::stringstream stream;
  net::CaptureWriter writer{stream};
  std::vector<net::Packet> in;
  for (int i = 0; i < 40; ++i) {
    net::Packet p;
    p.ts = sim::SimTime{i * 100};
    p.src = net::Ipv6Address{rng.next(), rng.next()};
    p.dst = net::Ipv6Address{rng.next(), rng.next()};
    const std::size_t len = rng.below(20);
    for (std::size_t k = 0; k < len; ++k) {
      p.payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
    }
    writer.write(p);
    in.push_back(std::move(p));
  }
  const std::string full = stream.str();

  for (std::size_t cut = 0; cut <= full.size(); cut += 3) {
    std::stringstream torn{full.substr(0, cut)};
    net::CaptureReader reader{torn};
    std::size_t records = 0;
    while (auto p = reader.next()) {
      // Every record read from a truncated file must equal the original.
      ASSERT_LT(records, in.size());
      EXPECT_EQ(p->src, in[records].src);
      EXPECT_EQ(p->payload, in[records].payload);
      ++records;
    }
    EXPECT_LE(records, in.size());
  }
}

TEST(PcapFuzz, BitflipsNeverCrash) {
  sim::Rng rng{102};
  std::stringstream stream;
  net::CaptureWriter writer{stream};
  for (int i = 0; i < 10; ++i) {
    net::Packet p;
    p.ts = sim::SimTime{i};
    p.payload.assign(8, static_cast<std::uint8_t>(i));
    writer.write(p);
  }
  std::string data = stream.str();
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupt = data;
    const std::size_t pos = rng.below(corrupt.size());
    corrupt[pos] = static_cast<char>(corrupt[pos] ^
                                     (1 << rng.below(8)));
    std::stringstream in{corrupt};
    net::CaptureReader reader{in};
    std::size_t count = 0;
    while (reader.next() && count < 1000) ++count;
    SUCCEED();
  }
}

// --------------------------------------------------------- engine stress

TEST(EngineStress, MatchesReferenceModel) {
  // Random schedule workload, compared against a sorted-multimap
  // reference.
  sim::Rng rng{103};
  sim::Engine engine;
  std::vector<std::int64_t> fired;
  std::multimap<std::int64_t, int> reference;

  for (int id = 0; id < 2000; ++id) {
    const auto when = static_cast<std::int64_t>(rng.below(1'000'000));
    engine.schedule(sim::SimTime{when},
                    [&fired, when]() { fired.push_back(when); });
    reference.emplace(when, id);
  }
  engine.runAll();
  ASSERT_EQ(fired.size(), reference.size());
  // Firing order must be non-decreasing in time and match the reference
  // multiset of times.
  std::vector<std::int64_t> expected;
  for (const auto& [when, id] : reference) expected.push_back(when);
  std::vector<std::int64_t> sortedFired = fired;
  std::sort(sortedFired.begin(), sortedFired.end());
  EXPECT_EQ(sortedFired, expected);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
}

// ------------------------------------------- prefix table erase property

TEST(PrefixTrieProperty, EraseReinsertConsistency) {
  sim::Rng rng{104};
  net::PrefixTable<int> table;
  std::map<net::Prefix, int> reference;
  for (int round = 0; round < 3000; ++round) {
    const unsigned len = 8 + static_cast<unsigned>(rng.below(41));
    const net::Prefix p{
        net::Ipv6Address{(rng.next() & 0xff00000000000000ULL) |
                             (rng.below(16) << 40),
                         0},
        len};
    if (rng.chance(0.6)) {
      const int value = static_cast<int>(rng.below(1000));
      table.insert(p, value);
      reference[p] = value;
    } else {
      const bool had = reference.erase(p) > 0;
      EXPECT_EQ(table.erase(p), had);
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  for (const auto& [p, v] : reference) {
    const int* found = table.findExact(p);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
  }
  EXPECT_EQ(table.entries().size(), reference.size());
}

// --------------------------------------- aggregation monotonicity property

TEST(SessionProperty, CoarserAggregationNeverIncreasesCounts) {
  sim::Rng rng{105};
  std::vector<net::Packet> packets;
  sim::SimTime t = sim::kEpoch;
  for (int i = 0; i < 4000; ++i) {
    t += sim::millis(static_cast<std::int64_t>(rng.exponential(400'000.0)));
    net::Packet p;
    p.ts = t;
    // Sources spread over a few /48s, /64s, and IIDs.
    p.src = net::Ipv6Address{0x2400000000000000ULL |
                                 (rng.below(3) << 40) | (rng.below(5) << 16),
                             rng.below(20)};
    p.dst = net::Ipv6Address{0x3fff000000000000ULL, rng.next()};
    packets.push_back(p);
  }
  const auto s128 = telescope::sessionize(packets,
                                          telescope::SourceAgg::Addr128);
  const auto s64 = telescope::sessionize(packets, telescope::SourceAgg::Net64);
  const auto s48 = telescope::sessionize(packets, telescope::SourceAgg::Net48);
  EXPECT_GE(s128.size(), s64.size());
  EXPECT_GE(s64.size(), s48.size());
  // Packet conservation at every level.
  for (const auto* sessions : {&s128, &s64, &s48}) {
    std::size_t total = 0;
    for (const auto& s : *sessions) total += s.packetCount();
    EXPECT_EQ(total, packets.size());
  }
}

TEST(SessionProperty, LongerTimeoutNeverIncreasesSessionCount) {
  sim::Rng rng{106};
  std::vector<net::Packet> packets;
  sim::SimTime t = sim::kEpoch;
  for (int i = 0; i < 3000; ++i) {
    t += sim::millis(static_cast<std::int64_t>(rng.exponential(900'000.0)));
    net::Packet p;
    p.ts = t;
    p.src = net::Ipv6Address{0x2400000000000000ULL, rng.below(10)};
    packets.push_back(p);
  }
  std::size_t previous = SIZE_MAX;
  for (const auto timeout :
       {sim::minutes(5), sim::minutes(30), sim::hours(1), sim::hours(4)}) {
    const auto sessions = telescope::sessionize(
        packets, telescope::SourceAgg::Addr128, timeout);
    EXPECT_LE(sessions.size(), previous);
    previous = sessions.size();
  }
}

// --------------------------------------------------- window accounting

TEST(SummaryProperty, DisjointWindowsSumToWhole) {
  core::ExperimentConfig config;
  config.seed = 3;
  config.sourceScale = 0.02;
  config.volumeScale = 0.002;
  config.baseline = sim::weeks(2);
  config.splits = 2;
  config.routeObjectAt = sim::weeks(3);
  core::RunnerConfig runnerConfig;
  runnerConfig.experiment = config;
  core::ExperimentRunner runner{runnerConfig};
  runner.run();
  const auto summary = core::ExperimentSummary::compute(runner);

  const sim::SimTime end = runner.experimentEnd();
  for (std::size_t t = 0; t < 4; ++t) {
    const auto whole = summary.windowStats(
        runner.capture(t), t, core::Period{sim::kEpoch, end + sim::hours(1)});
    // Split the timeline into 5 disjoint windows; packets must sum up.
    std::uint64_t packetSum = 0;
    std::size_t sessionSum = 0;
    const sim::Duration step = (end + sim::hours(1) - sim::kEpoch) / 5;
    for (int w = 0; w < 5; ++w) {
      const core::Period window{sim::kEpoch + step * w,
                                sim::kEpoch + step * (w + 1)};
      const auto stats = summary.windowStats(runner.capture(t), t, window);
      packetSum += stats.packets;
      sessionSum += stats.sessions128;
    }
    EXPECT_EQ(packetSum, whole.packets) << "telescope " << t;
    EXPECT_EQ(sessionSum, whole.sessions128) << "telescope " << t;
  }
}

TEST(SummaryProperty, WindowStatsOfSubspanMatchesFilterOverAllPackets) {
  // windowStats and sessionsIn read a window as a lower_bound pair over
  // the time-ordered capture or start-ordered session list. Compare them
  // with a plain filter over every packet and session, for window bounds
  // drawn mostly from the packets' own timestamps — so they fall inside
  // runs of equal timestamps — and otherwise anywhere, empty and inverted
  // windows included.
  sim::Rng rng{2718};
  std::vector<std::vector<net::Packet>> shards(1);
  std::int64_t ts = 0;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    if (rng.chance(0.3)) {
      ts += static_cast<std::int64_t>(rng.below(4)) * sim::minutes(20).millis();
    }
    net::Packet p;
    p.ts = sim::SimTime{ts};
    p.src = net::Ipv6Address{0x2001'0db8'0000'0000ULL | rng.below(3),
                             rng.below(40)};
    p.dst = net::Ipv6Address{0x3fff'0100'0000'0000ULL, rng.below(500)};
    p.srcAsn = net::Asn{static_cast<std::uint32_t>(rng.below(5))};
    p.originId = i;
    p.originSeq = i;
    shards[0].push_back(p);
  }
  std::array<telescope::CaptureStore, 4> captures;
  captures[0].mergeFrom(std::move(shards));
  const auto summary = core::ExperimentSummary::compute(
      {&captures[0], &captures[1], &captures[2], &captures[3]},
      {"T1", "T2", "T3", "T4"}, fault::FaultSpec{});
  const std::vector<net::Packet>& packets = captures[0].packets();

  auto bound = [&] {
    if (rng.chance(0.8)) return packets[rng.below(packets.size())].ts;
    return sim::SimTime{static_cast<std::int64_t>(
                            rng.below(static_cast<std::uint64_t>(ts) + 2)) -
                        1};
  };
  for (int w = 0; w < 300; ++w) {
    const core::Period period{bound(), bound()};
    std::uint64_t inWindow = 0;
    std::set<net::Ipv6Address> sources128;
    std::set<net::Ipv6Address> sources64;
    std::set<net::Ipv6Address> destinations;
    std::set<std::uint32_t> asns;
    for (const net::Packet& p : packets) {
      if (!period.contains(p.ts)) continue;
      ++inWindow;
      sources128.insert(p.src);
      sources64.insert(p.src.maskedTo(64));
      destinations.insert(p.dst);
      if (!p.srcAsn.unattributed()) asns.insert(p.srcAsn.value());
    }
    std::size_t sessions128 = 0;
    for (const telescope::Session& s : summary.telescope(0).sessions128) {
      sessions128 += period.contains(s.start) ? 1 : 0;
    }
    // The subspan holds exactly the filter's sessions, in list order.
    for (const auto* list : {&summary.telescope(0).sessions128,
                             &summary.telescope(0).sessions64}) {
      std::vector<const telescope::Session*> filtered;
      for (const telescope::Session& s : *list) {
        if (period.contains(s.start)) filtered.push_back(&s);
      }
      std::vector<const telescope::Session*> window;
      for (const telescope::Session& s : core::sessionsIn(*list, period)) {
        window.push_back(&s);
      }
      EXPECT_EQ(window, filtered) << "window " << w;
    }
    const auto stats = summary.windowStats(captures[0], 0, period);
    EXPECT_EQ(stats.packets, inWindow) << "window " << w;
    EXPECT_EQ(stats.sources128, sources128.size()) << "window " << w;
    EXPECT_EQ(stats.sources64, sources64.size()) << "window " << w;
    EXPECT_EQ(stats.destinations, destinations.size()) << "window " << w;
    EXPECT_EQ(stats.asns, asns.size()) << "window " << w;
    EXPECT_EQ(stats.sessions128, sessions128) << "window " << w;
  }
}

// --------------------------------------- sessionizer timeout boundaries

namespace {

net::Packet probePacket(sim::SimTime ts, std::uint64_t seq) {
  net::Packet p;
  p.ts = ts;
  p.src = net::Ipv6Address::mustParse("3fff:abcd::1");
  p.dst = net::Ipv6Address::mustParse("3fff:100::1");
  p.originId = 1;
  p.originSeq = seq;
  return p;
}

std::vector<telescope::Session> twoPacketsApart(
    sim::Duration gap, telescope::Sessionizer::Stats* stats = nullptr,
    std::vector<std::pair<sim::SimTime, sim::SimTime>> captureGaps = {}) {
  const std::vector<net::Packet> packets{
      probePacket(sim::kEpoch + sim::hours(1), 0),
      probePacket(sim::kEpoch + sim::hours(1) + gap, 1),
  };
  return telescope::sessionize(packets, telescope::SourceAgg::Addr128,
                               telescope::kSessionTimeout, stats,
                               std::move(captureGaps));
}

} // namespace

TEST(SessionBoundary, SilenceExactlyAtTimeoutStillJoins) {
  // The session rule is a *strict* gap: packets t and t + 1h apart belong
  // to one session (inter-arrival <= timeout), per the paper's one-hour
  // convention.
  telescope::Sessionizer::Stats stats;
  const auto sessions = twoPacketsApart(telescope::kSessionTimeout, &stats);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].packetCount(), 2u);
  EXPECT_EQ(stats.closedByTimeout, 0u);
}

TEST(SessionBoundary, OneTickUnderTimeoutJoins) {
  const auto sessions =
      twoPacketsApart(telescope::kSessionTimeout - sim::millis(1));
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].packetCount(), 2u);
}

TEST(SessionBoundary, OneTickOverTimeoutSplits) {
  telescope::Sessionizer::Stats stats;
  const auto sessions =
      twoPacketsApart(telescope::kSessionTimeout + sim::millis(1), &stats);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(stats.closedByTimeout, 1u);
  EXPECT_EQ(stats.closedByGap, 0u);
}

TEST(SessionBoundary, CaptureGapEdgesAreHalfOpen) {
  // A 10-minute declared outage [start, end) well inside the timeout. The
  // second packet lands at exact boundary instants; only silences that
  // actually overlap the half-open window may split.
  const sim::SimTime first = sim::kEpoch + sim::hours(1);
  const sim::SimTime gapStart = first + sim::minutes(20);
  const sim::SimTime gapEnd = gapStart + sim::minutes(10);
  const std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps{
      {gapStart, gapEnd}};

  struct Case {
    sim::Duration second; // offset of the second packet from `first`
    std::size_t wantSessions;
    std::uint64_t wantClosedByGap;
  };
  const Case cases[] = {
      // One tick before the outage begins: silence ends in clean air.
      {sim::minutes(20) - sim::millis(1), 1, 0},
      // Exactly at the outage start: that instant is dark ([start, end)),
      // so continuity across it cannot be attested.
      {sim::minutes(20), 2, 1},
      // One tick before the outage ends: still inside the window.
      {sim::minutes(30) - sim::millis(1), 2, 1},
      // Exactly at the end: `end` itself is lit again, but the silence
      // covered the whole window — split.
      {sim::minutes(30), 2, 1},
  };
  for (const Case& c : cases) {
    telescope::Sessionizer::Stats stats;
    const auto sessions = twoPacketsApart(c.second, &stats, gaps);
    EXPECT_EQ(sessions.size(), c.wantSessions)
        << "second packet at +" << c.second.millis() << "ms";
    EXPECT_EQ(stats.closedByGap, c.wantClosedByGap)
        << "second packet at +" << c.second.millis() << "ms";
    EXPECT_EQ(stats.closedByTimeout, 0u);
  }

  // Both packets after the outage: the gap list is present but inert.
  telescope::Sessionizer::Stats stats;
  const std::vector<net::Packet> after{
      probePacket(gapEnd, 0),
      probePacket(gapEnd + sim::minutes(40), 1),
  };
  const auto sessions =
      telescope::sessionize(after, telescope::SourceAgg::Addr128,
                            telescope::kSessionTimeout, &stats, gaps);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(stats.closedByGap, 0u);
}

TEST(SessionBoundary, TimeoutSilenceAcrossGapCountsAsGapClose) {
  // Silence that is BOTH over the timeout and across an outage: the gap
  // takes precedence in the close accounting (the telescope being dark is
  // the stronger statement about why continuity broke).
  const sim::SimTime first = sim::kEpoch + sim::hours(1);
  const std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps{
      {first + sim::minutes(30), first + sim::minutes(40)}};
  telescope::Sessionizer::Stats stats;
  const auto sessions =
      twoPacketsApart(sim::hours(2), &stats, gaps);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(stats.closedByGap, 1u);
  EXPECT_EQ(stats.closedByTimeout, 0u);
}

} // namespace
} // namespace v6t
