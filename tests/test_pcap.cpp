// Tests for packet records, the v6tcap serialization, and AS/rDNS
// registries.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "net/asn.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "net/tool_signatures.hpp"
#include "sim/rng.hpp"

namespace v6t::net {
namespace {

Packet samplePacket(sim::Rng& rng) {
  Packet p;
  p.ts = sim::SimTime{static_cast<std::int64_t>(rng.below(1u << 30))};
  p.src = Ipv6Address{rng.next(), rng.next()};
  p.dst = Ipv6Address{rng.next(), rng.next()};
  p.proto = static_cast<Protocol>(rng.below(3));
  p.srcPort = static_cast<std::uint16_t>(rng.below(65536));
  p.dstPort = static_cast<std::uint16_t>(rng.below(65536));
  p.icmpType = static_cast<std::uint8_t>(rng.below(256));
  p.hopLimit = static_cast<std::uint8_t>(rng.below(256));
  p.srcAsn = Asn{static_cast<std::uint32_t>(rng.below(70000))};
  const std::size_t payloadLen = rng.below(24);
  for (std::size_t i = 0; i < payloadLen; ++i) {
    p.payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
  return p;
}

bool equal(const Packet& a, const Packet& b) {
  return a.ts == b.ts && a.src == b.src && a.dst == b.dst &&
         a.proto == b.proto && a.srcPort == b.srcPort &&
         a.dstPort == b.dstPort && a.icmpType == b.icmpType &&
         a.icmpCode == b.icmpCode && a.hopLimit == b.hopLimit &&
         a.srcAsn == b.srcAsn && a.payload == b.payload;
}

TEST(Pcap, RoundTrip) {
  sim::Rng rng{21};
  std::vector<Packet> in;
  for (int i = 0; i < 500; ++i) in.push_back(samplePacket(rng));

  std::stringstream stream;
  CaptureWriter writer{stream};
  for (const Packet& p : in) writer.write(p);
  EXPECT_EQ(writer.recordsWritten(), 500u);

  CaptureReader reader{stream};
  ASSERT_TRUE(reader.ok());
  const std::vector<Packet> out = reader.readAll();
  EXPECT_TRUE(reader.ok()); // clean EOF
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(equal(in[i], out[i])) << "record " << i;
  }
}

TEST(Pcap, RejectsForeignMagic) {
  std::stringstream stream;
  stream << "NOTACAPFILE";
  CaptureReader reader{stream};
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Pcap, TornRecordFlagsError) {
  sim::Rng rng{22};
  std::stringstream stream;
  CaptureWriter writer{stream};
  writer.write(samplePacket(rng));
  const std::size_t boundary = stream.str().size();
  writer.write(samplePacket(rng));
  const std::string data = stream.str();
  ASSERT_GT(data.size(), boundary + 8);

  // Every cut inside the last record — a partial timestamp included —
  // reads the first record and then flags the file as torn.
  for (std::size_t keep = 1; boundary + keep < data.size(); ++keep) {
    std::stringstream torn{data.substr(0, boundary + keep)};
    CaptureReader reader{torn};
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.readAll().size(), 1u) << "kept " << keep << " bytes";
    EXPECT_FALSE(reader.ok()) << "kept " << keep << " bytes";
  }
}

TEST(Pcap, EmptyCapture) {
  std::stringstream stream;
  CaptureWriter writer{stream};
  CaptureReader reader{stream};
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.ok());
}

TEST(Packet, TraceroutePortRange) {
  EXPECT_TRUE(isTraceroutePort(33434));
  EXPECT_TRUE(isTraceroutePort(33523));
  EXPECT_FALSE(isTraceroutePort(33433));
  EXPECT_FALSE(isTraceroutePort(33524));
  EXPECT_FALSE(isTraceroutePort(80));
}

TEST(AsRegistry, LookupAndTypes) {
  AsRegistry registry;
  registry.add(AsInfo{Asn{65001}, "Test Hosting", NetworkType::Hosting, "DE",
                      false});
  registry.add(AsInfo{Asn{65002}, "Test Uni", NetworkType::Education, "US",
                      true});
  ASSERT_NE(registry.find(Asn{65001}), nullptr);
  EXPECT_EQ(registry.find(Asn{65001})->name, "Test Hosting");
  EXPECT_EQ(registry.typeOf(Asn{65001}), NetworkType::Hosting);
  EXPECT_EQ(registry.typeOf(Asn{65002}), NetworkType::Education);
  EXPECT_EQ(registry.typeOf(Asn{65999}), NetworkType::Unknown);
  EXPECT_TRUE(registry.isResearch(Asn{65002}));
  EXPECT_FALSE(registry.isResearch(Asn{65001}));
  EXPECT_FALSE(registry.isResearch(Asn{65999}));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RdnsRegistry, Lookup) {
  RdnsRegistry rdns;
  const Ipv6Address a = Ipv6Address::mustParse("2001:db8::1");
  rdns.add(a, "probe1.atlas.example");
  ASSERT_TRUE(rdns.lookup(a).has_value());
  EXPECT_EQ(*rdns.lookup(a), "probe1.atlas.example");
  EXPECT_FALSE(rdns.lookup(Ipv6Address::mustParse("2001:db8::2")).has_value());
}

TEST(ToolSignatures, MatchesAllTools) {
  for (const ToolSignature& sig : kToolSignatures) {
    std::vector<std::uint8_t> payload(sig.magic.begin(),
                                      sig.magic.begin() + sig.magicLen);
    payload.push_back(0x99);
    EXPECT_EQ(matchToolSignature(payload), sig.tool);
  }
}

TEST(ToolSignatures, UnknownOnNoMatch) {
  const std::vector<std::uint8_t> random{0xde, 0xad, 0xbe, 0xef, 0x01};
  EXPECT_EQ(matchToolSignature(random), ScanTool::Unknown);
  EXPECT_EQ(matchToolSignature({}), ScanTool::Unknown);
  const std::vector<std::uint8_t> tooShort{'y', 'r'};
  EXPECT_EQ(matchToolSignature(tooShort), ScanTool::Unknown);
}

} // namespace
} // namespace v6t::net
