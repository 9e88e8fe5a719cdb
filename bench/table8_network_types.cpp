// Table 8 — network types of scan sources at T1 (split period): scanners,
// sessions, and packets per AS category, with heavy-hitter exclusion rows.
#include <unordered_map>
#include <unordered_set>

#include "analysis/heavy_hitter.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void table8_network_types(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const core::Period split = ctx.splitPeriod();
  const auto& capture = ctx.runner->capture(core::T1);
  const auto& registry = ctx.runner->asRegistry();
  const auto sessions =
      core::sessionsIn(ctx.summary.telescope(core::T1).sessions128, split);
  const auto& hitters = ctx.reports[core::T1].heavyHitters;
  std::unordered_set<net::Ipv6Address> hitterSet;
  for (const auto& h : hitters) hitterSet.insert(h.source);

  constexpr std::size_t kTypes = 6;
  std::unordered_set<net::Ipv6Address> sources[kTypes];
  std::uint64_t sessionCount[kTypes] = {};
  std::uint64_t packetCount[kTypes] = {};
  std::uint64_t packetsNoHitters[kTypes] = {};
  std::uint64_t hittersPerType[kTypes] = {};

  auto typeOf = [&](net::Asn asn) {
    return static_cast<std::size_t>(registry.typeOf(asn));
  };
  std::uint64_t totalPackets = 0;
  for (const net::Packet& p : capture.packets()) {
    if (!split.contains(p.ts)) continue;
    const std::size_t type = typeOf(p.srcAsn);
    ++packetCount[type];
    ++totalPackets;
    sources[type].insert(p.src);
    if (!hitterSet.contains(p.src)) ++packetsNoHitters[type];
  }
  for (const auto& s : sessions) {
    const net::Packet& first = capture.packets()[s.packetIdx.front()];
    ++sessionCount[typeOf(first.srcAsn)];
  }
  for (const auto& h : hitters) ++hittersPerType[typeOf(h.asn)];

  std::uint64_t totalScanners = 0;
  for (const auto& set : sources) totalScanners += set.size();

  struct Row {
    net::NetworkType type;
    const char* paper;
  };
  const Row rows[] = {
      {net::NetworkType::Hosting, "56.0 scn / 25.7 sess / 65.1 pkt"},
      {net::NetworkType::Isp, "39.6 / 50.9 / 3.4"},
      {net::NetworkType::Education, "2.1 / 19.1 / 31.3"},
      {net::NetworkType::Business, "1.6 / 2.5 / 0.2"},
      {net::NetworkType::Government, "0.05 / 0.01 / 0.00"},
      {net::NetworkType::Unknown, "0.6 / 1.9 / 0.1"},
  };
  analysis::TextTable table{{"Network", "Scanners", "[%]", "Sessions", "[%]",
                             "Packets", "[%]", "Hitters", "paper %"}};
  for (const Row& row : rows) {
    const auto i = static_cast<std::size_t>(row.type);
    table.addRow(
        {std::string{net::toString(row.type)},
         analysis::withThousands(sources[i].size()),
         analysis::fixed(
             analysis::percent(sources[i].size(), totalScanners), 2),
         analysis::withThousands(sessionCount[i]),
         analysis::fixed(analysis::percent(sessionCount[i], sessions.size()),
                         2),
         analysis::withThousands(packetCount[i]),
         analysis::fixed(analysis::percent(packetCount[i], totalPackets), 2),
         std::to_string(hittersPerType[i]), row.paper});
    if (hittersPerType[i] > 0) {
      table.addRow({"  w/o heavy hitters", "", "", "", "",
                    analysis::withThousands(packetsNoHitters[i]),
                    analysis::fixed(
                        analysis::percent(packetsNoHitters[i], totalPackets),
                        2),
                    "", ""});
    }
  }
  table.render(std::cout);
}
