// Ablation — source aggregation level (§3.3 / Fig. 4). The paper analyzes
// /128 and /64 because they diverge; /48 would start merging unrelated
// scanners (especially in hosting networks). This section quantifies all
// three on the same capture.
#include <unordered_map>
#include <unordered_set>

#include "analysis/report.hpp"
#include "bench/harness.hpp"

void ablation_source_aggregation(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  for (std::size_t t = 0; t < 4; ++t) {
    const auto& capture = ctx.runner->capture(t);
    if (capture.packetCount() == 0) continue;
    analysis::TextTable table{{"aggregation", "sources", "sessions",
                               "max sources merged into one key"}};
    for (const auto agg : {telescope::SourceAgg::Addr128,
                           telescope::SourceAgg::Net64,
                           telescope::SourceAgg::Net48}) {
      std::unordered_set<net::Ipv6Address> keys;
      std::unordered_map<net::Ipv6Address,
                         std::unordered_set<net::Ipv6Address>>
          merged;
      for (const net::Packet& p : capture.packets()) {
        const auto key = p.src.maskedTo(telescope::bits(agg));
        keys.insert(key);
        merged[key].insert(p.src);
      }
      std::size_t worst = 0;
      for (const auto& [key, set] : merged) {
        worst = std::max(worst, set.size());
      }
      const auto sessions = telescope::sessionize(capture.packets(), agg);
      table.addRow({"/" + std::to_string(telescope::bits(agg)),
                    analysis::withThousands(keys.size()),
                    analysis::withThousands(sessions.size()),
                    std::to_string(worst)});
    }
    std::cout << ctx.runner->telescopeName(t) << ":\n";
    table.render(std::cout);
  }
  std::cout << "expected shape: T2 shows the strongest /128-vs-/64 "
               "divergence (source rotators); /48 merges scanner farms "
               "into single keys\n";
}
