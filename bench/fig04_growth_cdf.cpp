// Fig. 4 — relative growth of packets, ASes, sources (/128 and /64), and
// sessions (/128 and /64) over the full measurement, all telescopes
// aggregated. The /128-vs-/64 divergence and the discontinuous packet
// jumps from heavy hitters are the features to reproduce.
#include <set>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void fig04_growth_cdf(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  // Collect (week, id) observations across all telescopes.
  std::map<std::int64_t, std::uint64_t> packetsPerWeek;
  std::vector<std::pair<std::int64_t, net::Ipv6Address>> src128;
  std::vector<std::pair<std::int64_t, net::Ipv6Address>> src64;
  std::vector<std::pair<std::int64_t, std::uint32_t>> asns;
  std::map<std::int64_t, std::uint64_t> sessions128PerWeek;
  std::map<std::int64_t, std::uint64_t> sessions64PerWeek;

  for (std::size_t t = 0; t < 4; ++t) {
    for (const net::Packet& p :
         ctx.runner->capture(t).packets()) {
      const std::int64_t week = p.ts.weekIndex();
      ++packetsPerWeek[week];
      src128.emplace_back(week, p.src);
      src64.emplace_back(week, p.src.maskedTo(64));
      if (!p.srcAsn.unattributed()) asns.emplace_back(week, p.srcAsn.value());
    }
    for (const auto& s : ctx.summary.telescope(t).sessions128) {
      ++sessions128PerWeek[s.start.weekIndex()];
    }
    for (const auto& s : ctx.summary.telescope(t).sessions64) {
      ++sessions64PerWeek[s.start.weekIndex()];
    }
  }
  // cumulativeDistinct expects observations in time order.
  auto byWeek = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::stable_sort(src128.begin(), src128.end(), byWeek);
  std::stable_sort(src64.begin(), src64.end(), byWeek);
  std::stable_sort(asns.begin(), asns.end(), byWeek);

  const auto packetSeries = analysis::cumulative(packetsPerWeek);
  const auto s128 = analysis::cumulativeDistinct(src128);
  const auto s64 = analysis::cumulativeDistinct(src64);
  const auto asSeries = analysis::cumulativeDistinct(asns);
  const auto sess128 = analysis::cumulative(sessions128PerWeek);
  const auto sess64 = analysis::cumulative(sessions64PerWeek);

  auto at = [](const analysis::CumulativeSeries& series, std::int64_t week) {
    double value = 0.0;
    for (const auto& [w, v] : series.points) {
      if (w > week) break;
      value = static_cast<double>(v);
    }
    const double total = static_cast<double>(series.total());
    return total == 0.0 ? 0.0 : value / total;
  };

  analysis::TextTable table{{"week", "packets", "ASes", "src /128",
                             "src /64", "sess /128", "sess /64"}};
  const std::int64_t weeks = ctx.runner->experimentEnd().weekIndex();
  for (std::int64_t w = 0; w <= weeks; w += 2) {
    table.addRow({std::to_string(w), analysis::fixed(at(packetSeries, w), 3),
                  analysis::fixed(at(asSeries, w), 3),
                  analysis::fixed(at(s128, w), 3),
                  analysis::fixed(at(s64, w), 3),
                  analysis::fixed(at(sess128, w), 3),
                  analysis::fixed(at(sess64, w), 3)});
  }
  table.render(std::cout);
  std::cout << "totals: packets=" << packetSeries.total()
            << " ASes=" << asSeries.total() << " src128=" << s128.total()
            << " src64=" << s64.total() << " sess128=" << sess128.total()
            << " sess64=" << sess64.total() << "\n"
            << "paper shape: /128 series outgrow /64 after the split phase "
               "begins; packets jump discontinuously at heavy hitters\n";
}
