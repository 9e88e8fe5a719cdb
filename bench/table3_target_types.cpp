// Table 3 — distribution of target address types over all telescopes,
// full observation period (packets and /128 sources per type).
#include <unordered_map>
#include <unordered_set>

#include "analysis/addr_class.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

int main() {
  using namespace v6t;
  bench::RunContext ctx =
      bench::runStandard("Table 3: target address-type distribution");

  std::uint64_t packets[analysis::kAddressTypeCount] = {};
  std::unordered_set<net::Ipv6Address>
      sources[analysis::kAddressTypeCount];
  std::uint64_t totalPackets = 0;
  std::unordered_set<net::Ipv6Address> allSources;

  for (std::size_t t = 0; t < 4; ++t) {
    for (const net::Packet& p :
         ctx.runner->capture(t).packets()) {
      const auto type =
          static_cast<std::size_t>(analysis::classifyAddress(p.dst));
      ++packets[type];
      ++totalPackets;
      sources[type].insert(p.src);
      allSources.insert(p.src);
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
                  analysis::withThousands(packets[i]),
                  analysis::fixed(analysis::percent(packets[i], totalPackets),
                                  2),
                  analysis::withThousands(sources[i].size()),
                  analysis::fixed(
                      analysis::percent(sources[i].size(), allSources.size()),
                      2),
                  row.paper});
  }
  table.render(std::cout);
  std::cout << "(source shares may exceed 100%: scanners probe multiple "
               "types)\n";
  return 0;
}
