// Table 6 — classification of T1 scanners during the split period:
// temporal behavior and network selection, scanners and sessions.
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "analysis/taxonomy.hpp"
#include "bench/harness.hpp"

void table6_taxonomy(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const auto sessions = core::sessionsIn(
      ctx.summary.telescope(core::T1).sessions128, ctx.splitPeriod());
  const analysis::TaxonomyResult& taxonomy = ctx.splitTaxonomy;

  const auto scanners = taxonomy.profiles.size();
  std::uint64_t totalSessions = sessions.size();

  analysis::TextTable table{{"Classification", "Scanners", "[%]", "Sessions",
                             "[%]", "paper scn% / sess%"}};
  table.addRow({"Temporal behavior", "", "", "", "", ""});
  auto temporalRow = [&](analysis::TemporalClass cls, const char* paper) {
    table.addRow({"  " + std::string{analysis::toString(cls)},
                  analysis::withThousands(taxonomy.scannersOf(cls)),
                  analysis::fixed(
                      analysis::percent(taxonomy.scannersOf(cls), scanners), 2),
                  analysis::withThousands(taxonomy.sessionsOf(cls)),
                  analysis::fixed(analysis::percent(taxonomy.sessionsOf(cls),
                                                    totalSessions),
                                  2),
                  paper});
  };
  temporalRow(analysis::TemporalClass::OneOff, "69.71 / 8.95");
  temporalRow(analysis::TemporalClass::Intermittent, "15.49 / 18.28");
  temporalRow(analysis::TemporalClass::Periodic, "14.80 / 72.78");

  table.addSeparator();
  table.addRow({"Network selection", "", "", "", "", ""});
  auto networkRow = [&](analysis::NetworkSelection sel, const char* paper) {
    table.addRow({"  " + std::string{analysis::toString(sel)},
                  analysis::withThousands(taxonomy.scannersOf(sel)),
                  analysis::fixed(
                      analysis::percent(taxonomy.scannersOf(sel), scanners), 2),
                  analysis::withThousands(taxonomy.sessionsOf(sel)),
                  analysis::fixed(analysis::percent(taxonomy.sessionsOf(sel),
                                                    totalSessions),
                                  2),
                  paper});
  };
  networkRow(analysis::NetworkSelection::SinglePrefix, "90.50 / 19.47");
  networkRow(analysis::NetworkSelection::SizeIndependent, "8.75 / 30.85");
  networkRow(analysis::NetworkSelection::Inconsistent, "0.55 / 48.07");
  networkRow(analysis::NetworkSelection::SizeDependent, "0.20 / 1.61");

  table.render(std::cout);
  std::cout << "T1 split-period scanners: " << scanners
            << ", sessions: " << totalSessions << "\n";
}
