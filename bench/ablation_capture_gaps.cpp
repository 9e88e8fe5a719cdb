// Ablation — capture-gap sensitivity. The paper's 11-month collection
// inevitably contains telescope downtime; this ablation injects scheduled
// capture outages of growing length (via the fault layer) and reports how
// packet counts and the session tables respond. Gap-aware sessionization
// keeps the *structure* honest — silence caused by a dark telescope splits
// sessions instead of fabricating continuity — so the interesting question
// is how fast the headline numbers drift as outages grow.
//
// Runs at a reduced scale by default (four runs of the sharded runner);
// V6T_SOURCE_SCALE / V6T_VOLUME_SCALE / V6T_THREADS override as usual.
#include <cstdlib>
#include <iostream>
#include <memory>

#include "analysis/report.hpp"
#include "bench/harness.hpp"
#include "fault/spec.hpp"

int main() {
  using namespace v6t;
  std::cout << "== Ablation: capture-gap sensitivity ==\n";

  core::ExperimentConfig base = bench::standardConfig();
  // Reduced scale unless the environment says otherwise: this ablation
  // runs the full pipeline once per gap length.
  if (std::getenv("V6T_SOURCE_SCALE") == nullptr) base.sourceScale = 0.05;
  if (std::getenv("V6T_VOLUME_SCALE") == nullptr) base.volumeScale = 0.004;
  base.baseline = sim::weeks(4);
  base.splits = 6;
  base.routeObjectAt = sim::weeks(6);
  base.threads =
      static_cast<unsigned>(bench::envInt("V6T_THREADS", 2, 1, 64));

  // An all-telescope outage starting mid-baseline, of growing length.
  const std::pair<const char*, const char*> gapSpecs[] = {
      {"none", ""},
      {"6 h", "gap=all@2w+6h"},
      {"1 d", "gap=all@2w+1d"},
      {"3 d", "gap=all@2w+3d"},
  };

  analysis::TextTable table{{"outage", "T1 packets", "T1 sessions /128",
                             "closed by gap", "T2 packets",
                             "T2 sessions /128"}};
  for (const auto& [label, specText] : gapSpecs) {
    const auto parsed = fault::FaultSpec::parse(specText);
    if (!parsed.ok()) {
      std::cerr << "bad spec: " << parsed.errors.front() << "\n";
      return 1;
    }
    core::RunnerConfig config;
    config.experiment = base;
    config.experiment.faults = parsed.spec;
    auto runner = std::make_unique<core::ExperimentRunner>(config);
    runner->run();
    const auto summary = core::ExperimentSummary::compute(*runner);

    const bool gapped = !parsed.spec.gaps.empty();
    const auto& t1 = summary.telescope(core::T1);
    const auto& t2 = summary.telescope(core::T2);
    table.addRow({label,
                  analysis::gapFlagged(
                      analysis::withThousands(
                          runner->capture(core::T1).packets().size()),
                      gapped),
                  analysis::withThousands(t1.sessions128.size()),
                  analysis::withThousands(t1.stats128.closedByGap),
                  analysis::gapFlagged(
                      analysis::withThousands(
                          runner->capture(core::T2).packets().size()),
                      gapped),
                  analysis::withThousands(t2.sessions128.size())});
  }
  table.render(std::cout);
  std::cout << "expected shape: packet counts shrink roughly linearly with "
               "the outage length while session counts dip and then partly "
               "recover (sources re-open sessions after the gap); "
               "closed-by-gap counts grow with outage length — cells "
               "covering an outage carry the !gap marker\n";
  return 0;
}
