// Quickstart: the v6telescope basics in ~80 lines.
//
// Build a telescope, announce its prefix, point a couple of scanner agents
// at it, run the simulation for two weeks, then sessionize and classify
// the capture — the same pipeline the full paper reproduction uses.
//
//   ./quickstart
#include <iostream>

#include "analysis/report.hpp"
#include "analysis/taxonomy.hpp"
#include "bgp/feed.hpp"
#include "scanner/scanner.hpp"
#include "telescope/capture_store.hpp"
#include "telescope/fabric.hpp"

int main() {
  using namespace v6t;

  // --- the world: a clock, a routing table, a delivery fabric ---
  sim::Engine engine;
  bgp::Rib rib;
  bgp::BgpFeed feed{engine, rib, /*seed=*/1};
  telescope::DeliveryFabric fabric{engine, rib};

  // --- one passive telescope on a /48 ---
  telescope::Telescope scope{telescope::TelescopeConfig{
      "demo", {net::Prefix::mustParse("3fff:db8:1::/48")},
      telescope::Mode::Passive, std::nullopt, std::nullopt}};
  fabric.attach(scope);

  // --- two scanners with different personalities ---
  scanner::ScannerConfig periodic;
  periodic.id = 1;
  periodic.seed = 11;
  periodic.sourceNet = net::Prefix::mustParse("2400:cafe:1:2::/64");
  periodic.asn = net::Asn{64512};
  periodic.temporal = scanner::TemporalBehavior::Periodic;
  periodic.period = sim::days(2);
  periodic.knowledge = scanner::Knowledge::BgpReactive;
  periodic.addrsel = scanner::TargetStrategy::LowByte;
  periodic.packetsPerSessionMean = 25;
  scanner::Scanner lowByteScanner{periodic, engine, fabric};

  scanner::ScannerConfig oneOff = periodic;
  oneOff.id = 2;
  oneOff.seed = 22;
  oneOff.sourceNet = net::Prefix::mustParse("2400:beef:3:4::/64");
  oneOff.temporal = scanner::TemporalBehavior::OneOff;
  oneOff.addrsel = scanner::TargetStrategy::RandomIid;
  oneOff.packetsPerSessionMean = 150;
  scanner::Scanner randomScanner{oneOff, engine, fabric};

  lowByteScanner.start(&feed, nullptr);
  randomScanner.start(&feed, nullptr);

  // --- announce the prefix and let two weeks pass ---
  engine.schedule(sim::kEpoch, [&] {
    feed.announce(net::Prefix::mustParse("3fff:db8:1::/48"),
                  net::Asn{65010});
  });
  engine.run(sim::kEpoch + sim::weeks(2));

  // --- analyze what arrived ---
  telescope::CaptureStore capture;
  capture.mergeFrom({scope.takePackets()});
  const auto& packets = capture.packets();
  const auto sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Addr128);
  const auto taxonomy = analysis::classifyCapture(packets, sessions, nullptr);

  std::cout << "captured " << packets.size() << " packets in "
            << sessions.size() << " sessions from "
            << telescope::captureStats(packets).sources128
            << " sources\n\n";

  analysis::TextTable table{{"source", "sessions", "temporal", "addr-sel of "
                                                               "1st session"}};
  for (const auto& profile : taxonomy.profiles) {
    table.addRow({profile.source.addr.toString(),
                  std::to_string(profile.sessionIdx.size()),
                  std::string{analysis::toString(profile.temporal.cls)},
                  std::string{analysis::toString(
                      taxonomy.sessionAddrSel[profile.sessionIdx.front()])}});
  }
  table.render(std::cout);
  return 0;
}
