// Table 2 — packets, sessions, and sources per transport protocol,
// aggregated over all four telescopes, full observation period.
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void table2_protocols(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  std::uint64_t packets[3] = {};
  std::uint64_t sessions[3] = {};
  std::uint64_t totalPackets = 0;
  std::uint64_t totalSessions = 0;
  std::vector<std::span<const net::Packet>> windows;

  for (std::size_t t = 0; t < 4; ++t) {
    const auto& capture = ctx.runner->capture(t);
    windows.push_back(capture.packets());
    const auto& sessionList = ctx.summary.telescope(t).sessions128;
    totalSessions += sessionList.size();
    for (const auto& s : sessionList) {
      bool seen[3] = {};
      for (std::uint32_t idx : s.packetIdx) {
        seen[static_cast<std::size_t>(capture.packets()[idx].proto)] = true;
      }
      for (int proto = 0; proto < 3; ++proto) {
        if (seen[proto]) ++sessions[proto];
      }
    }
  }
  // One entry per (source, protocol) pair over all four telescopes, sorted
  // by source. The key function sees every packet once, so it counts them.
  const auto pairs =
      analysis::membership(windows, [&](const net::Packet& p) {
        ++packets[static_cast<std::size_t>(p.proto)];
        ++totalPackets;
        return std::optional{std::pair{p.src, p.proto}};
      }).entries;
  std::uint64_t sources[3] = {};
  std::uint64_t allSources = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ++sources[static_cast<std::size_t>(pairs[i].key.second)];
    allSources += i == 0 || pairs[i - 1].key.first != pairs[i].key.first;
  }

  analysis::TextTable table{{"Protocol", "Packets", "[%]", "Sessions /128",
                             "[%]", "Sources /128", "[%]",
                             "paper pkt% / sess% / src%"}};
  const char* paperRef[3] = {"66.2 / 20.1 / 56.5", "10.5 / 92.8 / 55.4",
                             "23.4 / 5.6 / 19.7"};
  const net::Protocol order[3] = {net::Protocol::Icmpv6, net::Protocol::Tcp,
                                  net::Protocol::Udp};
  for (int row = 0; row < 3; ++row) {
    const auto proto = static_cast<std::size_t>(order[row]);
    table.addRow({std::string{net::toString(order[row])},
                  analysis::withThousands(packets[proto]),
                  analysis::fixed(analysis::percent(packets[proto],
                                                    totalPackets), 1),
                  analysis::withThousands(sessions[proto]),
                  analysis::fixed(analysis::percent(sessions[proto],
                                                    totalSessions), 1),
                  analysis::withThousands(sources[proto]),
                  analysis::fixed(analysis::percent(sources[proto],
                                                    allSources), 1),
                  paperRef[row]});
  }
  table.render(std::cout);
  std::cout << "(shares may exceed 100%: multi-protocol scanners)\n";
}
