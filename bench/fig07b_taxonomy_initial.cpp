// Fig. 7(b) — classification of scanners during the initial period: per
// telescope, sessions split by the scanner's temporal behavior (rows) and
// the session's address-selection strategy (cells).
#include "analysis/report.hpp"
#include "analysis/taxonomy.hpp"
#include "bench/harness.hpp"

void fig07b_taxonomy_initial(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const core::Period initial = ctx.initialPeriod();
  analysis::TextTable table{{"Telescope", "Temporal", "structured", "random",
                             "unknown", "sessions"}};
  for (std::size_t t = 0; t < 4; ++t) {
    const auto& capture = ctx.runner->capture(t);
    const auto sessions =
        core::sessionsIn(ctx.summary.telescope(t).sessions128, initial);
    const auto taxonomy =
        bench::analyzeWindow(capture.packets(), sessions, nullptr,
                             {.heavyHitters = false, .fingerprint = false})
            .taxonomy;

    for (const auto cls :
         {analysis::TemporalClass::OneOff,
          analysis::TemporalClass::Intermittent,
          analysis::TemporalClass::Periodic}) {
      std::uint64_t bySel[3] = {};
      std::uint64_t total = 0;
      for (const auto& profile : taxonomy.profiles) {
        if (profile.temporal.cls != cls) continue;
        for (int sel = 0; sel < 3; ++sel) {
          bySel[sel] += profile.sessionsByAddrSel[sel];
          total += profile.sessionsByAddrSel[sel];
        }
      }
      table.addRow({ctx.runner->telescopeName(t),
                    std::string{analysis::toString(cls)},
                    std::to_string(bySel[0]), std::to_string(bySel[1]),
                    std::to_string(bySel[2]), std::to_string(total)});
    }
    table.addSeparator();
  }
  table.render(std::cout);
  std::cout << "paper shape: most scanners return (intermittent 41% / "
               "periodic 29%) and use structured selection; T3/T4 sessions "
               "are exclusively structured, none random\n";
}
