// Fig. 8 — UpSet intersections of (a) origin ASNs and (b) /128 scan
// sources across the four telescopes, initial observation period.
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void fig08_upset(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const core::Period initial = ctx.initialPeriod();
  const std::vector<std::string> names{"T1", "T2", "T3", "T4"};
  std::vector<std::span<const net::Packet>> windows;
  for (std::size_t t = 0; t < 4; ++t) {
    windows.push_back(
        core::packetsIn(ctx.runner->capture(t).packets(), initial));
  }

  // (a) ASNs.
  {
    const auto result = analysis::upset(analysis::membership(
        windows, [](const net::Packet& p) -> std::optional<net::Asn> {
          if (p.srcAsn.unattributed()) return std::nullopt;
          return p.srcAsn;
        }));
    std::cout << "(a) origin ASNs (set sizes: ";
    for (std::size_t t = 0; t < 4; ++t) {
      std::cout << names[t] << "=" << result.setTotals[t]
                << (t == 3 ? ")\n" : ", ");
    }
    analysis::TextTable table{{"combination", "ASNs"}};
    for (const auto& row : result.rows) {
      table.addRow({row.key(names), std::to_string(row.count)});
    }
    table.render(std::cout);
  }

  // (b) /128 sources.
  {
    const auto result = analysis::upset(analysis::membership(
        windows, [](const net::Packet& p) { return std::optional{p.src}; }));
    std::cout << "\n(b) /128 scan sources (set sizes: ";
    for (std::size_t t = 0; t < 4; ++t) {
      std::cout << names[t] << "=" << result.setTotals[t]
                << (t == 3 ? ")\n" : ", ");
    }
    analysis::TextTable table{{"combination", "sources"}};
    std::uint64_t exclusive = 0;
    std::uint64_t universe = 0;
    for (const auto& row : result.rows) {
      table.addRow({row.key(names), std::to_string(row.count)});
      universe += row.count;
      int sets_in = 0;
      for (bool m : row.membership) sets_in += m;
      if (sets_in == 1) exclusive += row.count;
    }
    table.render(std::cout);
    std::cout << "sources exclusive to one telescope: "
              << analysis::fixed(analysis::percent(exclusive, universe), 1)
              << "% (paper: ~90% — differently configured telescopes "
                 "attract different scanners)\n";
  }
}
