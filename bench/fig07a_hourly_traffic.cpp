// Fig. 7(a) — network traffic per hour across the four telescopes during
// the initial observation period (summary statistics + weekly profile,
// since an 2000-hour series doesn't print well).
#include <algorithm>
#include <array>

#include "analysis/report.hpp"
#include "bench/harness.hpp"
#include "telescope/capture_store.hpp"

void fig07a_hourly_traffic(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const core::Period initial = ctx.initialPeriod();
  const std::int64_t hours = initial.to.hourIndex();

  analysis::TextTable table{{"Telescope", "active hours", "mean pkts/h",
                             "p95", "max", "total"}};
  std::array<telescope::CaptureStats, 4> stats;
  for (std::size_t t = 0; t < 4; ++t) {
    stats[t] = telescope::captureStats(ctx.runner->capture(t).packets());
  }
  for (std::size_t t = 0; t < 4; ++t) {
    const auto& hourly = stats[t].hourly;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    for (const auto& [hour, count] : hourly) {
      if (hour >= hours) break;
      counts.push_back(count);
      total += count;
    }
    std::sort(counts.begin(), counts.end());
    const std::uint64_t p95 =
        counts.empty() ? 0 : counts[counts.size() * 95 / 100];
    const std::uint64_t max = counts.empty() ? 0 : counts.back();
    table.addRow({ctx.runner->telescopeName(t),
                  std::to_string(counts.size()),
                  analysis::fixed(hours == 0
                                      ? 0.0
                                      : static_cast<double>(total) /
                                            static_cast<double>(hours),
                                  2),
                  std::to_string(p95), std::to_string(max),
                  analysis::withThousands(total)});
  }
  table.render(std::cout);

  // Weekly totals as an ASCII profile (T1 and T2 carry the shape; T2 shows
  // the higher peaks from the DNS-attractor crowd).
  std::cout << "\nweekly packet profile (# = share of week's max)\n";
  for (std::size_t t = 0; t < 2; ++t) {
    const auto& weekly = stats[t].weekly;
    std::uint64_t peak = 1;
    for (const auto& [week, count] : weekly) {
      if (week < initial.to.weekIndex()) peak = std::max(peak, count);
    }
    std::cout << ctx.runner->telescopeName(t) << ":\n";
    for (const auto& [week, count] : weekly) {
      if (week >= initial.to.weekIndex()) break;
      std::cout << "  w" << week << " "
                << analysis::bar(static_cast<double>(count),
                                 static_cast<double>(peak), 50)
                << " " << count << "\n";
    }
  }
  std::cout << "paper shape: T2 shows longer and higher peaks than T1 "
               "(scanners hammering the DNS-named address); T3 nearly "
               "silent; T4 sporadic\n";
}
