// Fig. 9 — weekly scan sessions at the four telescopes during the initial
// observation period.
#include "analysis/report.hpp"
#include "bench/harness.hpp"

void fig09_weekly_sessions(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const core::Period initial = ctx.initialPeriod();
  const std::int64_t weeks = initial.to.weekIndex();

  analysis::TextTable table{{"week", "T1", "T2", "T3", "T4"}};
  std::map<std::int64_t, std::uint64_t> perWeek[4];
  for (std::size_t t = 0; t < 4; ++t) {
    for (const auto& s :
         core::sessionsIn(ctx.summary.telescope(t).sessions128, initial)) {
      ++perWeek[t][s.start.weekIndex()];
    }
  }
  for (std::int64_t w = 0; w < weeks; ++w) {
    std::vector<std::string> cells{std::to_string(w)};
    for (std::size_t t = 0; t < 4; ++t) {
      const auto it = perWeek[t].find(w);
      cells.push_back(
          std::to_string(it == perWeek[t].end() ? 0 : it->second));
    }
    table.addRow(cells);
  }
  table.render(std::cout);
  std::cout << "paper shape: rather stable for T1/T2, sporadic for T3/T4 "
               "(single October campaign peak at T4)\n";
}
