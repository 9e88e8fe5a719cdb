// Table 2 — packets, sessions, and sources per transport protocol,
// aggregated over all four telescopes, full observation period.
#include <unordered_set>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

int main() {
  using namespace v6t;
  bench::RunContext ctx = bench::runStandard(
      "Table 2: packets / sessions / sources per transport protocol");

  std::uint64_t packets[3] = {};
  std::uint64_t sessions[3] = {};
  std::unordered_set<net::Ipv6Address> sources[3];
  std::uint64_t totalPackets = 0;
  std::uint64_t totalSessions = 0;
  std::unordered_set<net::Ipv6Address> allSources;

  for (std::size_t t = 0; t < 4; ++t) {
    const auto& capture = ctx.runner->capture(t);
    for (const net::Packet& p : capture.packets()) {
      ++packets[static_cast<std::size_t>(p.proto)];
      ++totalPackets;
      sources[static_cast<std::size_t>(p.proto)].insert(p.src);
      allSources.insert(p.src);
    }
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
                  analysis::withThousands(sources[proto].size()),
                  analysis::fixed(analysis::percent(sources[proto].size(),
                                                    allSources.size()), 1),
                  paperRef[row]});
  }
  table.render(std::cout);
  std::cout << "(shares may exceed 100%: multi-protocol scanners)\n";
  return 0;
}
