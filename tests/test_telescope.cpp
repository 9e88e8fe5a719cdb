// Tests for capture stores, the sessionizer, telescope semantics, and the
// delivery fabric.
#include <gtest/gtest.h>

#include <sstream>

#include "bgp/rib.hpp"
#include "sim/rng.hpp"
#include "telescope/capture_store.hpp"
#include "telescope/fabric.hpp"
#include "telescope/session.hpp"
#include "telescope/telescope.hpp"

namespace v6t::telescope {
namespace {

using net::Ipv6Address;
using net::Packet;
using net::Prefix;
using net::Protocol;

Packet packetAt(sim::SimTime ts, const char* src, const char* dst,
                Protocol proto = Protocol::Icmpv6) {
  Packet p;
  p.ts = ts;
  p.src = Ipv6Address::mustParse(src);
  p.dst = Ipv6Address::mustParse(dst);
  p.proto = proto;
  if (proto == Protocol::Icmpv6) p.icmpType = net::kIcmpEchoRequest;
  return p;
}

// ------------------------------------------------------------ CaptureStore

TEST(CaptureStore, Accounting) {
  CaptureStore store;
  store.append(packetAt(sim::SimTime{0}, "2001:db8::1", "3fff::1"));
  store.append(packetAt(sim::kEpoch + sim::hours(1) + sim::minutes(1),
                        "2001:db8::2", "3fff::2", Protocol::Tcp));
  store.append(packetAt(sim::kEpoch + sim::days(8), "2001:db8:1::1",
                        "3fff::1", Protocol::Udp));

  EXPECT_EQ(store.packetCount(), 3u);
  const CaptureStats stats = captureStats(store.packets());
  EXPECT_EQ(stats.sources128, 3u);
  EXPECT_EQ(stats.sources64, 2u); // two in 2001:db8:0::/64
  EXPECT_EQ(stats.destinations, 2u);
  EXPECT_EQ(stats.packetsPerProtocol(Protocol::Icmpv6), 1u);
  EXPECT_EQ(stats.packetsPerProtocol(Protocol::Tcp), 1u);
  EXPECT_EQ(stats.packetsPerProtocol(Protocol::Udp), 1u);
  EXPECT_EQ(stats.hourly.size(), 3u);
  EXPECT_EQ(stats.daily.size(), 2u);
  EXPECT_EQ(stats.weekly.size(), 2u);
}

TEST(CaptureStore, SerializationRoundTrip) {
  CaptureStore store;
  for (int i = 0; i < 50; ++i) {
    store.append(packetAt(sim::SimTime{i * 1000}, "2001:db8::1", "3fff::1"));
  }
  std::stringstream stream;
  store.writeTo(stream);

  CaptureStore restored;
  EXPECT_EQ(restored.readFrom(stream), 50u);
  EXPECT_EQ(restored.packetCount(), 50u);
  EXPECT_EQ(captureStats(restored.packets()).sources128, 1u);
  EXPECT_EQ(restored.packets()[49].ts, sim::SimTime{49000});
}

// ------------------------------------------------------------- Sessionizer

TEST(Sessionizer, SplitsOnTimeout) {
  std::vector<Packet> packets;
  const sim::SimTime t0 = sim::kEpoch;
  packets.push_back(packetAt(t0, "2001:db8::1", "3fff::1"));
  packets.push_back(packetAt(t0 + sim::minutes(30), "2001:db8::1", "3fff::2"));
  packets.push_back(packetAt(t0 + sim::minutes(89), "2001:db8::1", "3fff::3"));
  // Gap of 61 minutes from the previous packet: new session.
  packets.push_back(packetAt(t0 + sim::minutes(151), "2001:db8::1", "3fff::4"));

  const auto sessions = sessionize(packets, SourceAgg::Addr128);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].packetCount(), 3u);
  EXPECT_EQ(sessions[1].packetCount(), 1u);
  EXPECT_EQ(sessions[0].start, t0);
  EXPECT_EQ(sessions[0].end, t0 + sim::minutes(89));
  EXPECT_EQ(sessions[0].duration(), sim::minutes(89));
}

TEST(Sessionizer, GapExactlyTimeoutContinues) {
  std::vector<Packet> packets;
  packets.push_back(packetAt(sim::kEpoch, "2001:db8::1", "3fff::1"));
  packets.push_back(
      packetAt(sim::kEpoch + kSessionTimeout, "2001:db8::1", "3fff::2"));
  EXPECT_EQ(sessionize(packets, SourceAgg::Addr128).size(), 1u);
}

TEST(Sessionizer, SeparatesSources) {
  std::vector<Packet> packets;
  packets.push_back(packetAt(sim::kEpoch, "2001:db8::1", "3fff::1"));
  packets.push_back(
      packetAt(sim::kEpoch + sim::seconds(1), "2001:db8::2", "3fff::1"));
  const auto sessions = sessionize(packets, SourceAgg::Addr128);
  EXPECT_EQ(sessions.size(), 2u);
}

TEST(Sessionizer, AggregationMergesWithin64) {
  // Two /128s in the same /64 interleaved within the timeout: two /128
  // sessions but a single /64 session — the divergence of Fig. 4.
  std::vector<Packet> packets;
  packets.push_back(packetAt(sim::kEpoch, "2001:db8::1", "3fff::1"));
  packets.push_back(
      packetAt(sim::kEpoch + sim::minutes(10), "2001:db8::2", "3fff::1"));
  packets.push_back(
      packetAt(sim::kEpoch + sim::minutes(20), "2001:db8::1", "3fff::2"));
  EXPECT_EQ(sessionize(packets, SourceAgg::Addr128).size(), 2u);
  EXPECT_EQ(sessionize(packets, SourceAgg::Net64).size(), 1u);
  // /48 aggregation merges across neighboring /64s.
  packets.push_back(
      packetAt(sim::kEpoch + sim::minutes(25), "2001:db8:0:1::9", "3fff::2"));
  EXPECT_EQ(sessionize(packets, SourceAgg::Net64).size(), 2u);
  EXPECT_EQ(sessionize(packets, SourceAgg::Net48).size(), 1u);
}

TEST(Sessionizer, SourceKeyMasking) {
  const auto key = SourceKey::of(Ipv6Address::mustParse("2001:db8:1:2::42"),
                                 SourceAgg::Net64);
  EXPECT_EQ(key.addr.toString(), "2001:db8:1:2::");
  EXPECT_EQ(bits(SourceAgg::Addr128), 128u);
  EXPECT_EQ(bits(SourceAgg::Net48), 48u);
}

TEST(Sessionizer, SessionsSortedByStart) {
  // 64 sources open in an order that is neither their address order nor
  // their hash order, and reopen after a timeout in the reverse order, so
  // the closed sessions and the open map both hold sessions out of start
  // order: only finish()'s sort can put the output in SessionOrder.
  constexpr std::uint64_t kSources = 64;
  const auto source = [](std::uint64_t k) {
    return Ipv6Address{0x20010db800000000ULL, (k * 37) % kSources};
  };
  const auto packetOf = [&](std::uint64_t k, sim::SimTime ts) {
    Packet p = packetAt(ts, "2001:db8::", "3fff::1");
    p.src = source(k);
    return p;
  };
  std::vector<Packet> packets;
  for (std::uint64_t k = 0; k < kSources; ++k) {
    packets.push_back(packetOf(k, sim::kEpoch + sim::minutes(k)));
  }
  for (std::uint64_t k = kSources; k-- > 0;) {
    packets.push_back(packetOf(
        k, sim::kEpoch + sim::hours(3) + sim::minutes(kSources - k)));
  }
  const auto sessions = sessionize(packets, SourceAgg::Addr128);
  ASSERT_EQ(sessions.size(), 2 * kSources);
  for (std::size_t i = 1; i < sessions.size(); ++i) {
    EXPECT_TRUE(SessionOrder{}(sessions[i - 1], sessions[i]))
        << "sessions " << i - 1 << " and " << i << " out of order";
  }
}

TEST(Sessionizer, GroupBySource) {
  std::vector<Packet> packets;
  packets.push_back(packetAt(sim::kEpoch, "2001:db8::a", "3fff::1"));
  packets.push_back(
      packetAt(sim::kEpoch + sim::hours(3), "2001:db8::a", "3fff::1"));
  packets.push_back(
      packetAt(sim::kEpoch + sim::hours(4), "2001:db8::b", "3fff::1"));
  const auto sessions = sessionize(packets, SourceAgg::Addr128);
  const auto grouped = groupBySource(sessions);
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0].sessionIdx.size(), 2u);
  EXPECT_EQ(grouped[1].sessionIdx.size(), 1u);
}

TEST(Sessionizer, PacketConservationProperty) {
  // Every packet lands in exactly one session, for random streams.
  sim::Rng rng{31};
  std::vector<Packet> packets;
  sim::SimTime t = sim::kEpoch;
  for (int i = 0; i < 3000; ++i) {
    t += sim::millis(static_cast<std::int64_t>(rng.exponential(600'000.0)));
    Packet p;
    p.ts = t;
    p.src = Ipv6Address{0x20010db800000000ULL, rng.below(5)};
    p.dst = Ipv6Address{0x3fff000000000000ULL, rng.next()};
    packets.push_back(p);
  }
  for (const SourceAgg agg :
       {SourceAgg::Addr128, SourceAgg::Net64, SourceAgg::Net48}) {
    const auto sessions = sessionize(packets, agg);
    std::size_t total = 0;
    for (const Session& s : sessions) {
      total += s.packetCount();
      EXPECT_GE(s.end, s.start);
      // Intra-session gaps never exceed the timeout.
      for (std::size_t k = 1; k < s.packetIdx.size(); ++k) {
        EXPECT_LE(packets[s.packetIdx[k]].ts - packets[s.packetIdx[k - 1]].ts,
                  kSessionTimeout);
      }
    }
    EXPECT_EQ(total, packets.size());
  }
}

// -------------------------------------------------------------- Telescope

TelescopeConfig t2Config() {
  return TelescopeConfig{
      "T2",
      {Prefix::mustParse("3fff:2::/48")},
      Mode::Traceable,
      Prefix::mustParse("3fff:2:0:ff00::/56"),
      Ipv6Address::mustParse("3fff:2::80"),
  };
}

TEST(Telescope, CapturesOwnedSpaceOnly) {
  Telescope t{TelescopeConfig{
      "T1", {Prefix::mustParse("3fff:100::/32")}, Mode::Passive, {}, {}}};
  EXPECT_TRUE(t.owns(Ipv6Address::mustParse("3fff:100::1")));
  EXPECT_FALSE(t.owns(Ipv6Address::mustParse("3fff:200::1")));

  // deliver() trusts the fabric's ownership test (Fabric tests below
  // cover the unowned case), so only owned packets are handed over here.
  const auto r =
      t.deliver(packetAt(sim::kEpoch, "2001:db8::1", "3fff:100::1"));
  EXPECT_TRUE(r.captured);
  EXPECT_FALSE(r.responded); // passive
  EXPECT_EQ(t.packets().size(), 1u);
}

TEST(Telescope, ExcludedSubnetNotCaptured) {
  Telescope t{t2Config()};
  auto r = t.deliver(
      packetAt(sim::kEpoch, "2001:db8::1", "3fff:2:0:ff00::5"));
  EXPECT_FALSE(r.captured);
  EXPECT_TRUE(r.responded); // productive hosts exist and answer
  EXPECT_EQ(t.excludedPackets(), 1u);
  EXPECT_EQ(t.packets().size(), 0u);
  // Outside the excluded /56: captured.
  r = t.deliver(packetAt(sim::kEpoch, "2001:db8::1", "3fff:2::80"));
  EXPECT_TRUE(r.captured);
}

TEST(Telescope, ActiveRespondsToTcpAndEcho) {
  Telescope t{TelescopeConfig{
      "T4", {Prefix::mustParse("3fff:e05:7::/48")}, Mode::Active, {}, {}}};
  auto r = t.deliver(packetAt(sim::kEpoch, "2001:db8::1", "3fff:e05:7::1",
                              Protocol::Tcp));
  EXPECT_TRUE(r.captured);
  EXPECT_TRUE(r.responded);
  r = t.deliver(packetAt(sim::kEpoch, "2001:db8::1", "3fff:e05:7::1",
                         Protocol::Icmpv6));
  EXPECT_TRUE(r.responded);
  // UDP to a random port: no answer.
  r = t.deliver(packetAt(sim::kEpoch, "2001:db8::1", "3fff:e05:7::1",
                         Protocol::Udp));
  EXPECT_TRUE(r.captured);
  EXPECT_FALSE(r.responded);
}

// ---------------------------------------------------------- DeliveryFabric

TEST(Fabric, RoutesOnlyAnnouncedSpace) {
  sim::Engine engine;
  bgp::Rib rib;
  DeliveryFabric fabric{engine, rib};
  Telescope t1{TelescopeConfig{
      "T1", {Prefix::mustParse("3fff:100::/32")}, Mode::Passive, {}, {}}};
  fabric.attach(t1);

  // Not announced yet: dropped.
  auto r = fabric.send(packetAt(sim::kEpoch, "2400::1", "3fff:100::1"));
  EXPECT_FALSE(r.captured);
  EXPECT_EQ(fabric.droppedNoRoute(), 1u);

  rib.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010},
               sim::kEpoch);
  r = fabric.send(packetAt(sim::kEpoch, "2400::1", "3fff:100::1"));
  EXPECT_TRUE(r.captured);
  EXPECT_EQ(t1.packets().size(), 1u);

  rib.withdraw(Prefix::mustParse("3fff:100::/32"));
  r = fabric.send(packetAt(sim::kEpoch, "2400::1", "3fff:100::1"));
  EXPECT_FALSE(r.captured);
  EXPECT_EQ(fabric.droppedNoRoute(), 2u);
}

TEST(Fabric, CoveredButUnownedGoesToVoid) {
  sim::Engine engine;
  bgp::Rib rib;
  rib.announce(Prefix::mustParse("3fff:e00::/29"), net::Asn{65020},
               sim::kEpoch);
  DeliveryFabric fabric{engine, rib};
  Telescope t3{TelescopeConfig{
      "T3", {Prefix::mustParse("3fff:e03:3::/48")}, Mode::Passive, {}, {}}};
  fabric.attach(t3);

  // Inside the /29 but outside T3's /48: routed, then vanishes.
  auto r = fabric.send(packetAt(sim::kEpoch, "2400::1", "3fff:e01::1"));
  EXPECT_FALSE(r.captured);
  EXPECT_EQ(fabric.deliveredToVoid(), 1u);
  // Inside T3: captured even though only the covering /29 is announced.
  r = fabric.send(packetAt(sim::kEpoch, "2400::1", "3fff:e03:3::1"));
  EXPECT_TRUE(r.captured);
}

TEST(Fabric, AnnotatesSourceAsnAndTimestamp) {
  sim::Engine engine;
  bgp::Rib rib;
  rib.announce(Prefix::mustParse("3fff:100::/32"), net::Asn{65010},
               sim::kEpoch);
  DeliveryFabric fabric{engine, rib};
  Telescope t1{TelescopeConfig{
      "T1", {Prefix::mustParse("3fff:100::/32")}, Mode::Passive, {}, {}}};
  fabric.attach(t1);
  fabric.registerSourceRoute(Prefix::mustParse("2400:5::/32"),
                             net::Asn{64999});

  engine.schedule(sim::kEpoch + sim::hours(5), [&] {
    Packet p = packetAt(sim::kEpoch, "2400:5::1", "3fff:100::1");
    fabric.send(std::move(p));
  });
  engine.runAll();
  ASSERT_EQ(t1.packets().size(), 1u);
  const Packet& captured = t1.packets()[0];
  EXPECT_EQ(captured.srcAsn, net::Asn{64999});
  EXPECT_EQ(captured.ts, sim::kEpoch + sim::hours(5)); // fabric stamps time
}

} // namespace
} // namespace v6t::telescope
