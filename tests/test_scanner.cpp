// Tests for target generators and the scanner agent's behavior: knowledge
// channels, temporal models, session serialization, source rotation, and
// the explorer drill loop.
#include <gtest/gtest.h>

#include "analysis/taxonomy.hpp"
#include "bgp/feed.hpp"
#include "bgp/hitlist.hpp"
#include "scanner/scanner.hpp"
#include "scanner/target_gen.hpp"
#include "telescope/capture_store.hpp"
#include "telescope/fabric.hpp"
#include "telescope/session.hpp"

namespace v6t::scanner {
namespace {

using net::Ipv6Address;
using net::Prefix;

// --------------------------------------------------------- TargetGenerator

TEST(TargetGenerator, StaysInPrefixForAllStrategies) {
  sim::Rng rng{91};
  const Prefix prefix = Prefix::mustParse("3fff:100:20::/48");
  for (std::size_t s = 0; s < kTargetStrategyCount; ++s) {
    TargetGenerator gen{static_cast<TargetStrategy>(s), prefix, rng};
    for (int i = 0; i < 200; ++i) {
      const Ipv6Address a = gen.next();
      EXPECT_TRUE(prefix.contains(a))
          << toString(static_cast<TargetStrategy>(s)) << " escaped with "
          << a.toString();
    }
  }
}

TEST(TargetGenerator, LowByteStartsAtOne) {
  sim::Rng rng{92};
  TargetGenerator gen{TargetStrategy::LowByte,
                      Prefix::mustParse("3fff:100::/32"), rng};
  EXPECT_EQ(gen.next().toString(), "3fff:100::1");
  EXPECT_EQ(gen.next().toString(), "3fff:100::2");
}

TEST(TargetGenerator, SubnetAnycastEndsInZero) {
  sim::Rng rng{93};
  TargetGenerator gen{TargetStrategy::SubnetAnycast,
                      Prefix::mustParse("3fff:100::/32"), rng};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(gen.next().lo64(), 0u);
}

TEST(TargetGenerator, SequentialSubnetsAreMonotonic) {
  sim::Rng rng{94};
  TargetGenerator gen{TargetStrategy::SequentialSubnets,
                      Prefix::mustParse("3fff:100::/32"), rng};
  Ipv6Address prev = gen.next();
  for (int i = 0; i < 200; ++i) {
    const Ipv6Address next = gen.next();
    EXPECT_FALSE(next < prev);
    prev = next;
  }
}

TEST(TargetGenerator, HostLongPrefixStillWorks) {
  // A /64 prefix has no /64 subnets to walk — generators must not escape.
  sim::Rng rng{95};
  const Prefix prefix = Prefix::mustParse("3fff:100:0:1::/64");
  for (const auto strategy :
       {TargetStrategy::LowByte, TargetStrategy::RandomIid,
        TargetStrategy::TreeWalk, TargetStrategy::SequentialSubnets}) {
    TargetGenerator gen{strategy, prefix, rng};
    for (int i = 0; i < 50; ++i) EXPECT_TRUE(prefix.contains(gen.next()));
  }
}

// ----------------------------------------------------------- test fixture

struct World {
  sim::Engine engine;
  bgp::Rib rib;
  bgp::BgpFeed feed{engine, rib, 1};
  telescope::DeliveryFabric fabric{engine, rib};
  telescope::Telescope t1{telescope::TelescopeConfig{
      "T1", {Prefix::mustParse("3fff:100::/32")}, telescope::Mode::Passive,
      {}, {}}};
  telescope::Telescope t4{telescope::TelescopeConfig{
      "T4", {Prefix::mustParse("3fff:e05:7::/48")}, telescope::Mode::Active,
      {}, {}}};

  World() {
    fabric.attach(t1);
    fabric.attach(t4);
  }

  ScannerConfig base() {
    ScannerConfig cfg;
    cfg.id = 1;
    cfg.seed = 77;
    cfg.sourceNet = Prefix::mustParse("2400:1:2:3::/64");
    cfg.asn = net::Asn{64999};
    cfg.activeFrom = sim::kEpoch;
    cfg.activeUntil = sim::kEpoch + sim::weeks(20);
    cfg.reaction = {sim::minutes(5), sim::minutes(10)};
    cfg.interPacketMean = sim::seconds(1);
    return cfg;
  }
};

TEST(Scanner, OneOffFiresExactlyOnce) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::OneOff;
  cfg.knowledge = Knowledge::BgpReactive;
  cfg.netsel = NetSelStrategy::SinglePrefix;
  cfg.packetsPerSessionMean = 10;
  Scanner scanner{cfg, w.engine, w.fabric};
  scanner.start(&w.feed, nullptr);

  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010});
  });
  // Announce again much later: the one-off must not re-fire.
  w.engine.schedule(sim::kEpoch + sim::weeks(2), [&] {
    w.feed.announce(Prefix::mustParse("3fff:100:8000::/33"), net::Asn{65010});
  });
  w.engine.run(sim::kEpoch + sim::weeks(10));

  EXPECT_EQ(scanner.stats().sessionsEmitted, 1u);
  EXPECT_GT(w.t1.packets().size(), 0u);
  const auto sessions = telescope::sessionize(
      w.t1.packets(), telescope::SourceAgg::Addr128);
  EXPECT_EQ(sessions.size(), 1u);
}

TEST(Scanner, PeriodicSweepsRepeat) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::Periodic;
  cfg.period = sim::days(2);
  cfg.knowledge = Knowledge::StaticList;
  cfg.staticPrefixes = {Prefix::mustParse("3fff:100::/32")};
  cfg.netsel = NetSelStrategy::SinglePrefix;
  cfg.packetsPerSessionMean = 5;
  Scanner scanner{cfg, w.engine, w.fabric};

  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010});
  });
  scanner.start(&w.feed, nullptr);
  w.engine.run(sim::kEpoch + sim::weeks(4));

  // ~14 sweeps in 4 weeks at a 2-day period.
  EXPECT_GE(scanner.stats().sessionsEmitted, 12u);
  EXPECT_LE(scanner.stats().sessionsEmitted, 16u);

  // The measured sessions must classify as periodic with ~2-day period.
  const auto sessions = telescope::sessionize(
      w.t1.packets(), telescope::SourceAgg::Addr128);
  std::vector<sim::SimTime> starts;
  for (const auto& s : sessions) starts.push_back(s.start);
  const auto result = analysis::classifyTemporal(starts);
  EXPECT_EQ(result.cls, analysis::TemporalClass::Periodic);
  ASSERT_TRUE(result.period.has_value());
  EXPECT_NEAR(result.period->days(), 2.0, 0.4);
}

TEST(Scanner, GeneratedSessionsMatchMeasuredSessions) {
  // The serialization invariant: one emitted session = one measured
  // session (for non-rotating sources).
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::Intermittent;
  cfg.sweepsPerWeek = 5;
  cfg.knowledge = Knowledge::StaticList;
  cfg.staticPrefixes = {Prefix::mustParse("3fff:100::/32")};
  cfg.netsel = NetSelStrategy::SinglePrefix;
  cfg.packetsPerSessionMean = 30;
  cfg.packetsPerSessionSigma = 1.2;
  Scanner scanner{cfg, w.engine, w.fabric};
  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010});
  });
  scanner.start(&w.feed, nullptr);
  w.engine.run(sim::kEpoch + sim::weeks(8));

  const auto sessions = telescope::sessionize(
      w.t1.packets(), telescope::SourceAgg::Addr128);
  EXPECT_EQ(sessions.size(), scanner.stats().sessionsEmitted);
  EXPECT_EQ(w.t1.packets().size(), scanner.stats().packetsEmitted);
}

TEST(Scanner, RotatorUsesManySourceAddresses) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.rotateSourceIid = true;
  cfg.temporal = TemporalBehavior::Intermittent;
  cfg.sweepsPerWeek = 4;
  cfg.knowledge = Knowledge::DnsAttractor;
  cfg.fixedTarget = Ipv6Address::mustParse("3fff:100::80");
  cfg.sessionsPerSweep = 3;
  cfg.packetsPerSessionMean = 3;
  Scanner scanner{cfg, w.engine, w.fabric};
  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010});
  });
  scanner.start(&w.feed, nullptr);
  w.engine.run(sim::kEpoch + sim::weeks(8));

  ASSERT_GT(w.t1.packets().size(), 0u);
  const telescope::CaptureStats capture =
      telescope::captureStats(w.t1.packets());
  // Many /128 sources, exactly one /64.
  EXPECT_GT(capture.sources128, 10u);
  EXPECT_EQ(capture.sources64, 1u);
  // Every packet goes to the attractor.
  EXPECT_EQ(capture.destinations, 1u);
}

TEST(Scanner, WithdrawnPrefixIsForgotten) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::Periodic;
  cfg.period = sim::days(1);
  cfg.knowledge = Knowledge::BgpReactive;
  cfg.netsel = NetSelStrategy::SizeIndependent;
  cfg.packetsPerSessionMean = 4;
  Scanner scanner{cfg, w.engine, w.fabric};
  scanner.start(&w.feed, nullptr);

  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010});
  });
  w.engine.schedule(sim::kEpoch + sim::weeks(2), [&] {
    w.feed.withdraw(Prefix::mustParse("3fff:100::/32"));
  });
  w.engine.run(sim::kEpoch + sim::weeks(6));

  const std::uint64_t atWithdraw = [&] {
    std::uint64_t count = 0;
    for (const auto& p : w.t1.packets()) {
      if (p.ts <= sim::kEpoch + sim::weeks(2) + sim::days(1)) ++count;
    }
    return count;
  }();
  // Nothing new arrives (well) after the withdrawal propagated.
  EXPECT_EQ(w.t1.packets().size(), atWithdraw);
  EXPECT_GT(atWithdraw, 0u);
}

TEST(Scanner, LiveMonitorArrivesWithinThirtyMinutes) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::Periodic;
  cfg.period = sim::days(4);
  cfg.knowledge = Knowledge::LiveBgpMonitor;
  cfg.sweepOnLearn = true;
  cfg.reaction = {sim::seconds(45), sim::minutes(6)};
  cfg.netsel = NetSelStrategy::SizeIndependent;
  cfg.packetsPerSessionMean = 3;
  Scanner scanner{cfg, w.engine, w.fabric};
  scanner.start(&w.feed, nullptr);

  const sim::SimTime announceAt = sim::kEpoch + sim::days(10);
  w.engine.schedule(announceAt, [&] {
    w.feed.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010});
  });
  w.engine.run(announceAt + sim::hours(2));

  ASSERT_GT(w.t1.packets().size(), 0u);
  const sim::SimTime firstPacket = w.t1.packets().front().ts;
  EXPECT_LE(firstPacket - announceAt, sim::minutes(30));
}

TEST(Scanner, ExplorerDrillsIntoResponsiveSpaceOnly) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::Intermittent;
  cfg.sweepsPerWeek = 2;
  cfg.knowledge = Knowledge::ResponsiveExplorer;
  // Observable slice of its systematic walk: the silent T3-like /48 (not
  // attached here, so it drops) and the reactive T4 /48.
  cfg.staticPrefixes = {Prefix::mustParse("3fff:e05:7::/48")};
  cfg.hitProbability = 1.0;
  cfg.exploreProbePackets = 2;
  cfg.packetsPerSessionMean = 40;
  cfg.drillInterval = sim::days(3);
  cfg.protocol.icmpWeight = 1.0;
  Scanner scanner{cfg, w.engine, w.fabric};

  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:e00::/29"), net::Asn{65020});
  });
  scanner.start(&w.feed, nullptr);
  w.engine.run(sim::kEpoch + sim::weeks(10));

  // The reactive telescope answered, so drills with full-size sessions
  // follow; captured volume far exceeds the shallow probes alone.
  EXPECT_GT(scanner.stats().responsesSeen, 0u);
  EXPECT_GT(w.t4.packets().size(), 200u);
}

TEST(Scanner, SweeperStaysShallow) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::Intermittent;
  cfg.sweepsPerWeek = 2;
  cfg.knowledge = Knowledge::SubprefixSweeper;
  cfg.staticPrefixes = {Prefix::mustParse("3fff:e05:7::/48")};
  cfg.hitProbability = 1.0;
  cfg.exploreProbePackets = 2;
  cfg.packetsPerSessionMean = 500; // must be ignored: sweepers never drill
  Scanner scanner{cfg, w.engine, w.fabric};
  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:e00::/29"), net::Asn{65020});
  });
  scanner.start(&w.feed, nullptr);
  w.engine.run(sim::kEpoch + sim::weeks(10));

  ASSERT_GT(scanner.stats().sessionsEmitted, 0u);
  EXPECT_LE(w.t4.packets().size(),
            scanner.stats().sessionsEmitted * 2);
}

TEST(Scanner, RespectsActiveWindow) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::Periodic;
  cfg.period = sim::days(1);
  cfg.knowledge = Knowledge::StaticList;
  cfg.staticPrefixes = {Prefix::mustParse("3fff:100::/32")};
  cfg.activeUntil = sim::kEpoch + sim::weeks(1);
  cfg.packetsPerSessionMean = 3;
  Scanner scanner{cfg, w.engine, w.fabric};
  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010});
  });
  scanner.start(&w.feed, nullptr);
  w.engine.run(sim::kEpoch + sim::weeks(5));

  for (const auto& p : w.t1.packets()) {
    EXPECT_LE(p.ts, sim::kEpoch + sim::weeks(1) + sim::hours(3));
  }
}

TEST(Scanner, PrefixInterestFiltersLearning) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::OneOff;
  cfg.knowledge = Knowledge::BgpReactive;
  cfg.prefixInterest = 0.0; // interested in nothing
  Scanner scanner{cfg, w.engine, w.fabric};
  scanner.start(&w.feed, nullptr);
  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010});
  });
  w.engine.run(sim::kEpoch + sim::weeks(2));
  EXPECT_EQ(scanner.stats().sessionsEmitted, 0u);
  EXPECT_EQ(scanner.stats().prefixesLearned, 0u);
}

TEST(Scanner, PayloadCarriesToolSignature) {
  World w;
  ScannerConfig cfg = w.base();
  cfg.temporal = TemporalBehavior::OneOff;
  cfg.knowledge = Knowledge::StaticList;
  cfg.staticPrefixes = {Prefix::mustParse("3fff:100::/32")};
  cfg.tool = net::ScanTool::Yarrp6;
  cfg.payloadProbability = 1.0;
  cfg.packetsPerSessionMean = 20;
  Scanner scanner{cfg, w.engine, w.fabric};
  w.engine.schedule(sim::kEpoch, [&] {
    w.feed.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010});
  });
  scanner.start(&w.feed, nullptr);
  w.engine.run(sim::kEpoch + sim::weeks(1));

  ASSERT_GT(w.t1.packets().size(), 0u);
  for (const auto& p : w.t1.packets()) {
    ASSERT_TRUE(p.hasPayload());
    EXPECT_EQ(net::matchToolSignature(p.payload), net::ScanTool::Yarrp6);
  }
}

} // namespace
} // namespace v6t::scanner
