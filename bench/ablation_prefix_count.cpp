// Ablation — §8 guidance (ii): "the size of an IPv6 prefix is of lower
// relevance for a network telescope than the number of individually
// announced prefixes". Regress T1's per-cycle session counts against the
// number of announced prefixes (which rises 2..17) while the covered
// address space stays the same /32 throughout.
#include <cmath>

#include "analysis/report.hpp"
#include "bench/harness.hpp"

void ablation_prefix_count(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const auto& schedule = ctx.runner->schedule();
  const auto& sessions = ctx.summary.telescope(core::T1).sessions128;

  analysis::TextTable table{{"cycle", "announced prefixes",
                             "covered space (/32 units)", "sessions",
                             "sessions per prefix"}};
  double sumX = 0;
  double sumY = 0;
  double sumXX = 0;
  double sumXY = 0;
  int n = 0;
  for (const auto& cycle : schedule.cycles()) {
    if (cycle.index == 0) continue;
    const core::Period period{cycle.announceAt, cycle.endsAt};
    const auto count = core::sessionsIn(sessions, period).size();
    // Covered space in units of the /32 (it is always ~the whole /32:
    // the split partitions, it does not shrink).
    double covered = 0.0;
    for (const auto& p : cycle.announced) {
      covered += std::pow(2.0, 32.0 - static_cast<double>(p.length()));
    }
    table.addRow({std::to_string(cycle.index),
                  std::to_string(cycle.announced.size()),
                  analysis::fixed(covered, 4),
                  analysis::withThousands(count),
                  analysis::fixed(static_cast<double>(count) /
                                      static_cast<double>(
                                          cycle.announced.size()),
                                  1)});
    const double x = static_cast<double>(cycle.announced.size());
    const double y = static_cast<double>(count);
    sumX += x;
    sumY += y;
    sumXX += x * x;
    sumXY += x * y;
    ++n;
  }
  table.render(std::cout);

  const double slope =
      (n * sumXY - sumX * sumY) / (n * sumXX - sumX * sumX);
  const double mean = sumY / n;
  std::cout << "sessions grow ~" << analysis::fixed(slope, 1)
            << " per additional announced prefix (mean "
            << analysis::fixed(mean, 0)
            << " sessions/cycle) while covered space stays one /32 "
               "throughout\n"
            << "=> visibility scales with announcement count, not with "
               "announced bytes (guidance ii)\n";
}
