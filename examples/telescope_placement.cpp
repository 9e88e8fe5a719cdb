// Operational guidance for telescope operators (§8): run the experiment
// and derive the five practical findings from the measured data.
//
//   ./telescope_placement
#include <iostream>

#include "analysis/taxonomy.hpp"
#include "core/guidance.hpp"
#include "core/summary.hpp"

int main() {
  using namespace v6t;

  core::ExperimentConfig config;
  config.seed = 99;
  config.sourceScale = 0.1;
  config.volumeScale = 0.01;
  config.baseline = sim::weeks(6);
  config.splits = 8;
  config.routeObjectAt = sim::weeks(8);

  std::cout << "simulating a telescope deployment study ...\n\n";
  core::RunnerConfig runnerConfig;
  runnerConfig.experiment = config;
  core::ExperimentRunner runner{runnerConfig};
  runner.run();
  const auto summary = core::ExperimentSummary::compute(runner);
  const auto t1Taxonomy = analysis::classifyCapture(
      runner.capture(core::T1).packets(),
      summary.telescope(core::T1).sessions128, &runner.schedule());
  const auto t2Taxonomy = analysis::classifyCapture(
      runner.capture(core::T2).packets(),
      summary.telescope(core::T2).sessions128, nullptr);

  const auto findings =
      core::GuidanceEngine::derive(runner, summary, t1Taxonomy, t2Taxonomy);
  std::cout << "operational guidance, derived from this run:\n\n";
  int index = 1;
  for (const auto& finding : findings) {
    std::cout << "(" << index++ << ") " << finding.topic << "\n    "
              << finding.statement << "\n    evidence: " << finding.evidence
              << "\n\n";
  }
  return 0;
}
