// Table 5 — comparison of the four telescopes during the initial 12-week
// observation period: (a) sources, ASes, destinations, packets; (b)
// distinct sources per transport protocol.
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void table5_telescopes(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const core::Period initial = ctx.initialPeriod();

  // (a) volume metrics. Paper row order & values for reference.
  analysis::TextTable a{{"", "T1", "T2", "T3", "T4", "paper (T1..T4)"}};
  core::TelescopeSummary::WindowStats stats[4];
  for (std::size_t t = 0; t < 4; ++t) {
    stats[t] = ctx.summary.windowStats(ctx.runner->capture(t), t, initial);
  }
  auto row = [&](const std::string& label, auto getter, const char* paper) {
    std::vector<std::string> cells{label};
    for (std::size_t t = 0; t < 4; ++t) cells.push_back(getter(stats[t]));
    cells.push_back(paper);
    a.addRow(cells);
  };
  row("/128 source addr.",
      [](const auto& s) { return analysis::withThousands(s.sources128); },
      "1386 / 6611 / 7 / 253");
  row("/64 source addr.",
      [](const auto& s) { return analysis::withThousands(s.sources64); },
      "1199 / 2113 / 6 / 251");
  row("ASN", [](const auto& s) { return analysis::withThousands(s.asns); },
      "418 / 478 / 6 / 9");
  row("Destination addr.",
      [](const auto& s) { return analysis::withThousands(s.destinations); },
      "796,443 / 714,169 / 20 / 1817");
  row("Packets",
      [](const auto& s) { return analysis::withThousands(s.packets); },
      "2,161,354 / 2,464,417 / 43 / 3416");
  a.render(std::cout);

  // (b) distinct sources per protocol.
  std::cout << "\n(b) distinct /128 sources per transport protocol\n";
  analysis::TextTable b{{"Protocol", "T1 [#]", "T1 [%]", "T2 [#]", "T2 [%]",
                         "T3 [#]", "T3 [%]", "T4 [#]", "T4 [%]"}};
  // One entry per (source, protocol) pair; bit t of its mask is telescope t.
  std::vector<std::span<const net::Packet>> windows;
  for (std::size_t t = 0; t < 4; ++t) {
    windows.push_back(
        core::packetsIn(ctx.runner->capture(t).packets(), initial));
  }
  std::uint64_t sources[3][4] = {}; // [protocol][telescope]
  for (const auto& e :
       analysis::membership(windows, [](const net::Packet& p) {
         return std::optional{std::pair{p.src, p.proto}};
       }).entries) {
    const auto proto = static_cast<std::size_t>(e.key.second);
    for (std::size_t t = 0; t < 4; ++t) sources[proto][t] += (e.mask >> t) & 1u;
  }
  const net::Protocol order[3] = {net::Protocol::Icmpv6, net::Protocol::Tcp,
                                  net::Protocol::Udp};
  for (const net::Protocol proto : order) {
    std::vector<std::string> cells{std::string{net::toString(proto)}};
    const auto& perTelescope = sources[static_cast<std::size_t>(proto)];
    for (std::size_t t = 0; t < 4; ++t) {
      cells.push_back(std::to_string(perTelescope[t]));
      cells.push_back(analysis::fixed(
          analysis::percent(perTelescope[t], stats[t].sources128), 1));
    }
    b.addRow(cells);
  }
  b.render(std::cout);
  std::cout << "paper 5(b): ICMPv6 80/62/100/97%, TCP 3/80/0/2%, "
               "UDP 19/27/0/0% of each telescope's sources\n";
}
