// The paper's experiment, end to end, at reduced scale: a 4-week baseline
// and six bi-weekly prefix splits. Prints the announcement timeline and
// how traffic follows the BGP signals.
//
//   ./bgp_split_experiment
#include <iostream>

#include "analysis/report.hpp"
#include "core/runner.hpp"
#include "core/summary.hpp"

int main() {
  using namespace v6t;

  core::ExperimentConfig config;
  config.seed = 2026;
  config.sourceScale = 0.1;
  config.volumeScale = 0.01;
  config.baseline = sim::weeks(4);
  config.splits = 6;
  config.routeObjectAt = sim::weeks(6);

  std::cout << "running " << config.splits << " split cycles on "
            << config.t1Base.toString() << " ...\n\n";
  core::RunnerConfig runnerConfig;
  runnerConfig.experiment = config;
  core::ExperimentRunner runner{runnerConfig};
  runner.run();
  const auto summary = core::ExperimentSummary::compute(runner);

  // The announcement timeline.
  std::cout << "announcement schedule (Fig. 2 logic):\n";
  for (const auto& cycle : runner.schedule().cycles()) {
    std::cout << "  cycle " << cycle.index << " @ "
              << sim::toString(cycle.announceAt) << ": "
              << cycle.announced.size() << " prefixes";
    if (cycle.index > 0) {
      std::cout << " (split " << cycle.splitParent.toString() << " -> "
                << cycle.newChildren.first.toString() << " + "
                << cycle.newChildren.second.toString() << ")";
    }
    std::cout << "\n";
  }

  // Traffic per cycle at T1.
  std::cout << "\nT1 packets and sessions per cycle:\n";
  analysis::TextTable table{{"cycle", "prefixes", "packets", "sessions",
                             "sources"}};
  for (const auto& cycle : runner.schedule().cycles()) {
    const core::Period period{cycle.announceAt, cycle.endsAt};
    const auto stats =
        summary.windowStats(runner.capture(core::T1), core::T1, period);
    table.addRow({std::to_string(cycle.index),
                  std::to_string(cycle.announced.size()),
                  analysis::withThousands(stats.packets),
                  analysis::withThousands(stats.sessions128),
                  analysis::withThousands(stats.sources128)});
  }
  table.render(std::cout);

  const auto& finalSet = runner.schedule().cycles().back().announced;
  std::cout << "\nfinal T1 announcement set (" << finalSet.size()
            << " prefixes):\n";
  for (const auto& prefix : finalSet) {
    std::cout << "  " << prefix.toString() << "\n";
  }
  std::cout << "\nhitlist knows " << runner.hitlistListings().size()
            << " of our prefixes (listings lag announcements by ~5 days)\n";
  return 0;
}
