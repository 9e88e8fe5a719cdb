// Fig. 3 — number of new source /64 prefixes discovered per day at T1
// during the initial observation period: a burst after the announcement
// that decays notably within about two weeks.
#include <set>

#include "analysis/report.hpp"
#include "bench/harness.hpp"

void fig03_new_prefix_decay(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const core::Period initial = ctx.initialPeriod();
  const auto& packets = ctx.runner->capture(core::T1).packets();

  std::set<net::Ipv6Address> seen;
  std::map<std::int64_t, std::uint64_t> freshPerDay;
  for (const net::Packet& p : packets) {
    if (!initial.contains(p.ts)) continue;
    if (seen.insert(p.src.maskedTo(64)).second) {
      ++freshPerDay[p.ts.dayIndex()];
    }
  }

  std::uint64_t peak = 0;
  for (const auto& [day, count] : freshPerDay) peak = std::max(peak, count);

  analysis::TextTable table{{"day", "new /64 source prefixes", ""}};
  std::uint64_t firstTwoWeeks = 0;
  std::uint64_t rest = 0;
  const std::int64_t days = initial.to.dayIndex();
  for (std::int64_t day = 0; day < days; ++day) {
    const auto it = freshPerDay.find(day);
    const std::uint64_t count = it == freshPerDay.end() ? 0 : it->second;
    (day < 14 ? firstTwoWeeks : rest) += count;
    table.addRow({std::to_string(day), std::to_string(count),
                  analysis::bar(static_cast<double>(count),
                                static_cast<double>(peak), 40)});
  }
  table.render(std::cout);
  const double dailyEarly = static_cast<double>(firstTwoWeeks) / 14.0;
  const double dailyLate =
      static_cast<double>(rest) / static_cast<double>(days - 14);
  std::cout << "first two weeks: " << firstTwoWeeks << " new prefixes ("
            << analysis::fixed(dailyEarly, 1) << "/day), remainder: " << rest
            << " (" << analysis::fixed(dailyLate, 1) << "/day)\n"
            << "paper: discovery rate drops notably after ~2 weeks, which "
               "fixed the announcement-cycle length\n";
}
