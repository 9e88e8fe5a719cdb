// Table 3 — distribution of target address types over all telescopes,
// full observation period (packets and /128 sources per type).
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/addr_class.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void table3_target_types(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  std::uint64_t packets[analysis::kAddressTypeCount] = {};
  std::uint64_t totalPackets = 0;
  std::vector<std::span<const net::Packet>> windows;
  for (std::size_t t = 0; t < 4; ++t) {
    windows.push_back(ctx.runner->capture(t).packets());
  }
  // One entry per (source, target type) pair over all four telescopes,
  // sorted by source. The key function sees every packet once, so it
  // counts them.
  const auto pairs =
      analysis::membership(windows, [&](const net::Packet& p) {
        const analysis::AddressType type = analysis::classifyAddress(p.dst);
        ++packets[static_cast<std::size_t>(type)];
        ++totalPackets;
        return std::optional{std::pair{p.src, type}};
      }).entries;
  std::uint64_t sources[analysis::kAddressTypeCount] = {};
  std::uint64_t allSources = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ++sources[static_cast<std::size_t>(pairs[i].key.second)];
    allSources += i == 0 || pairs[i - 1].key.first != pairs[i].key.first;
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
                  analysis::withThousands(sources[i]),
                  analysis::fixed(analysis::percent(sources[i], allSources),
                                  2),
                  row.paper});
  }
  table.render(std::cout);
  std::cout << "(source shares may exceed 100%: scanners probe multiple "
               "types)\n";
}
