// Table 4 — top-5 TCP and UDP destination ports, counted once per /64
// session, all telescopes, full period.
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void table4_ports(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  // Combine all telescopes; the paper aggregates sessions at /64 for this
  // analysis (vertical scanners rotate source IIDs per port).
  for (const net::Protocol proto : {net::Protocol::Tcp, net::Protocol::Udp}) {
    analysis::TextTable table{{"Rank", "Port", "Sessions", "[%]"}};
    // Rank across telescopes by summing session counts per port.
    std::map<std::string, std::uint64_t> merged;
    for (std::size_t t = 0; t < 4; ++t) {
      const auto& capture = ctx.runner->capture(t);
      const auto& sessions = ctx.summary.telescope(t).sessions64;
      const auto ranks = analysis::topPorts(capture.packets(), sessions,
                                            proto, 100);
      for (const auto& r : ranks) {
        const std::string key =
            r.tracerouteRange ? "traceroute[33434-33523]"
                              : std::to_string(r.port);
        merged[key] += r.sessions;
      }
    }
    // Recompute shares against the total sessions carrying this protocol.
    std::uint64_t carrying = 0;
    for (std::size_t t = 0; t < 4; ++t) {
      const auto& capture = ctx.runner->capture(t);
      for (const auto& s : ctx.summary.telescope(t).sessions64) {
        for (std::uint32_t idx : s.packetIdx) {
          if (capture.packets()[idx].proto == proto) {
            ++carrying;
            break;
          }
        }
      }
    }
    std::vector<std::pair<std::string, std::uint64_t>> sorted(merged.begin(),
                                                              merged.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::cout << (proto == net::Protocol::Tcp ? "TCP" : "UDP")
              << " (paper top-5: "
              << (proto == net::Protocol::Tcp
                      ? "80 87.2%, 443 29.4%, 21 4.7%, 8080 3.9%, 22 3.4%"
                      : "traceroute 71.4%, 53 19.7%, 161 17.4%, 500 17.3%, "
                        "123 16.9%")
              << ")\n";
    for (std::size_t i = 0; i < sorted.size() && i < 5; ++i) {
      table.addRow({"#" + std::to_string(i + 1), sorted[i].first,
                    analysis::withThousands(sorted[i].second),
                    analysis::fixed(
                        analysis::percent(sorted[i].second, carrying), 1)});
    }
    table.render(std::cout);
    std::cout << "distinct ports/buckets hit: " << merged.size() << "\n\n";
  }
}
