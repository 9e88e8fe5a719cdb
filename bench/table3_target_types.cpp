// Table 3 — distribution of target address types over all telescopes,
// full observation period (packets and /128 sources per type), summed
// from the taxonomy's per-scanner target-type tallies.
#include <map>

#include "analysis/addr_class.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void table3_target_types(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  // Each /128 source's target types over all four telescopes. Every
  // packet is a target of one /128 session, so the tallies count each
  // packet once.
  std::map<net::Ipv6Address, analysis::AddressTypeHistogram> typesOf;
  for (const analysis::PipelineResult& report : ctx.reports) {
    for (const analysis::ScannerProfile& profile : report.taxonomy.profiles) {
      typesOf[profile.source.addr] += profile.targetTypes;
    }
  }
  analysis::AddressTypeHistogram packets;
  std::uint64_t sources[analysis::kAddressTypeCount] = {};
  for (const auto& [source, types] : typesOf) {
    packets += types;
    for (std::size_t i = 0; i < analysis::kAddressTypeCount; ++i) {
      sources[i] += types.count[i] > 0;
    }
  }

  // Paper reference (packet% / source%) in Table 3's order.
  struct Row {
    analysis::AddressType type;
    const char* paper;
  };
  const Row rows[] = {
      {analysis::AddressType::Randomized, "64.24 / 5.83"},
      {analysis::AddressType::LowByte, "23.09 / 89.71"},
      {analysis::AddressType::PatternBytes, "5.96 / 1.58"},
      {analysis::AddressType::EmbeddedIpv4, "3.96 / 1.52"},
      {analysis::AddressType::SubnetAnycast, "2.29 / 4.09"},
      {analysis::AddressType::EmbeddedPort, "0.27 / 0.22"},
      {analysis::AddressType::IeeeDerived, "0.19 / 0.07"},
      {analysis::AddressType::Isatap, "<0.01 / <0.01"},
      {analysis::AddressType::Wordy, "(not separately reported)"},
  };

  analysis::TextTable table{{"Address Type", "Packets", "[%]",
                             "Sources /128", "[%]", "paper pkt% / src%"}};
  for (const Row& row : rows) {
    const auto i = static_cast<std::size_t>(row.type);
    table.addRow({std::string{analysis::toString(row.type)},
                  analysis::withThousands(packets.count[i]),
                  analysis::fixed(
                      analysis::percent(packets.count[i], packets.total()), 2),
                  analysis::withThousands(sources[i]),
                  analysis::fixed(
                      analysis::percent(sources[i], typesOf.size()), 2),
                  row.paper});
  }
  table.render(std::cout);
  std::cout << "(source shares may exceed 100%: scanners probe multiple "
               "types)\n";
}
