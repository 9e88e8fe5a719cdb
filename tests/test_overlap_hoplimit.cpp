// Tests for the cross-telescope membership fold (the Fig. 16 overlap) and
// the hop-limit traceroute detector.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/fingerprint.hpp"
#include "analysis/hoplimit.hpp"
#include "analysis/stats.hpp"
#include "sim/rng.hpp"

namespace v6t::analysis {
namespace {

using net::Ipv6Address;
using net::Packet;

Packet at(const char* src, std::int64_t day, std::uint8_t hops = 60) {
  Packet p;
  p.ts = sim::kEpoch + sim::days(day) + sim::hours(3);
  p.src = Ipv6Address::mustParse(src);
  p.dst = Ipv6Address::mustParse("3fff::1");
  p.hopLimit = hops;
  return p;
}

// ------------------------------------------------------------- overlap

std::optional<Ipv6Address> bySource(const Packet& p) { return p.src; }

std::optional<std::pair<Ipv6Address, std::int64_t>> bySourceDay(
    const Packet& p) {
  return std::pair{p.src, p.ts.dayIndex()};
}

TEST(Overlap, SharedExclusiveAndSameDay) {
  const std::vector<Packet> a{at("2400::1", 0), at("2400::1", 5),
                              at("2400::2", 1), at("2400::3", 2)};
  const std::vector<Packet> b{at("2400::1", 5), at("2400::2", 7),
                              at("2400::9", 3)};
  const std::span<const Packet> windows[] = {a, b};

  const auto sources = membership(windows, bySource);
  EXPECT_EQ(sources.windowCount, 2u);
  std::vector<std::pair<Ipv6Address, std::uint32_t>> got;
  for (const auto& e : sources.entries) got.emplace_back(e.key, e.mask);
  // ::1 and ::2 shared, ::3 only at A, ::9 only at B; keys ascending.
  EXPECT_EQ(got, (std::vector<std::pair<Ipv6Address, std::uint32_t>>{
                     {Ipv6Address::mustParse("2400::1"), 0b11},
                     {Ipv6Address::mustParse("2400::2"), 0b11},
                     {Ipv6Address::mustParse("2400::3"), 0b01},
                     {Ipv6Address::mustParse("2400::9"), 0b10}}));

  // Same day: only ::1 (day 5 at both); ::2 came on different days.
  const auto days = membership(windows, bySourceDay);
  EXPECT_EQ(days.entries.size(), 6u); // ::1 twice, ::2 twice, ::3, ::9
  std::vector<std::pair<Ipv6Address, std::int64_t>> together;
  for (const auto& e : days.entries) {
    if (e.mask == 0b11) together.push_back(e.key);
  }
  EXPECT_EQ(together, (std::vector<std::pair<Ipv6Address, std::int64_t>>{
                          {Ipv6Address::mustParse("2400::1"), 5}}));
}

TEST(Overlap, SourceInEveryWindow) {
  const std::vector<Packet> a{at("2400::1", 0), at("2400::2", 0)};
  const std::vector<Packet> b{at("2400::1", 1)};
  const std::vector<Packet> c{at("2400::1", 2), at("2400::3", 2)};
  const std::span<const Packet> windows[] = {a, b, c};
  std::vector<Ipv6Address> everywhere;
  for (const auto& e : membership(windows, bySource).entries) {
    if (e.mask == 0b111) everywhere.push_back(e.key);
  }
  EXPECT_EQ(everywhere,
            std::vector<Ipv6Address>{Ipv6Address::mustParse("2400::1")});
}

TEST(Overlap, EmptyInput) {
  const auto none = membership({}, bySource);
  EXPECT_EQ(none.windowCount, 0u);
  EXPECT_TRUE(none.entries.empty());
  EXPECT_TRUE(upset(none).rows.empty());

  const std::span<const Packet> empty[2] = {};
  const auto result = upset(membership(empty, bySource));
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(result.setTotals, (std::vector<std::uint64_t>{0, 0}));
}

// ------------------------------------------------------------ hop limits

telescope::Session sessionOver(const std::vector<Packet>& packets) {
  telescope::Session s;
  s.source = telescope::SourceKey::of(packets.front().src,
                                      telescope::SourceAgg::Addr128);
  s.start = packets.front().ts;
  s.end = packets.back().ts;
  for (std::uint32_t i = 0; i < packets.size(); ++i) s.packetIdx.push_back(i);
  return s;
}

TEST(HopLimit, DetectsTracerouteSweep) {
  std::vector<Packet> packets;
  for (int hop = 1; hop <= 16; ++hop) {
    packets.push_back(at("2400::1", 0, static_cast<std::uint8_t>(hop)));
  }
  const auto profile = profileHopLimits(packets, sessionOver(packets));
  EXPECT_EQ(profile.minHops, 1);
  EXPECT_EQ(profile.maxHops, 16);
  EXPECT_EQ(profile.distinctValues, 16u);
  EXPECT_TRUE(profile.looksLikeTraceroute());
}

TEST(HopLimit, DefaultScannerNotTraceroute) {
  sim::Rng rng{301};
  std::vector<Packet> packets;
  for (int i = 0; i < 30; ++i) {
    packets.push_back(
        at("2400::1", 0, static_cast<std::uint8_t>(40 + rng.below(25))));
  }
  EXPECT_FALSE(profileHopLimits(packets, sessionOver(packets))
                   .looksLikeTraceroute());
}

TEST(HopLimit, TinySessionsNeverQualify) {
  std::vector<Packet> packets{at("2400::1", 0, 1), at("2400::1", 0, 2)};
  EXPECT_FALSE(profileHopLimits(packets, sessionOver(packets))
                   .looksLikeTraceroute());
}

TEST(HopLimit, FingerprintFallbackAttributesTraceroute) {
  // A payloadless session with a hop sweep must come out as Traceroute.
  std::vector<Packet> packets;
  for (int hop = 1; hop <= 12; ++hop) {
    packets.push_back(at("2400::7", 0, static_cast<std::uint8_t>(hop)));
  }
  const auto sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Addr128);
  const auto result = fingerprintSessions(packets, sessions);
  ASSERT_EQ(result.sessionTool.size(), 1u);
  EXPECT_EQ(result.sessionTool[0], net::ScanTool::Traceroute);
  EXPECT_EQ(result.hopLimitAttributions, 1u);
}

} // namespace
} // namespace v6t::analysis
