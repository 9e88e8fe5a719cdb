// Fig. 11 — bi-weekly evolution of sessions and sources: the BGP
// controlled telescope (T1) grows through the split period while the
// other telescopes stay flat (paper: +275% weekly sources, +555% weekly
// sessions on average during the experiment).
#include <optional>
#include <span>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void fig11_biweekly_evolution(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const std::int64_t totalWeeks = ctx.runner->experimentEnd().weekIndex();
  analysis::TextTable table{{"weeks", "T1 sessions", "T1 sources",
                             "T2-T4 sessions", "T2-T4 sources"}};

  double t1BaselineSessions = 0;
  double t1BaselineSources = 0;
  double t1SplitSessions = 0;
  double t1SplitSources = 0;
  int baselineBins = 0;
  int splitBins = 0;
  const std::int64_t baselineWeeks = ctx.baselineEnd().weekIndex();

  for (std::int64_t w = 0; w < totalWeeks; w += 2) {
    const core::Period bin{sim::kEpoch + sim::weeks(w),
                           sim::kEpoch + sim::weeks(w + 2)};
    std::uint64_t t1Sessions = 0;
    std::uint64_t otherSessions = 0;
    std::vector<std::span<const net::Packet>> windows;
    for (std::size_t t = 0; t < 4; ++t) {
      (t == core::T1 ? t1Sessions : otherSessions) +=
          core::sessionsIn(ctx.summary.telescope(t).sessions128, bin).size();
      windows.push_back(
          core::packetsIn(ctx.runner->capture(t).packets(), bin));
    }
    // Bit 0 of a source's mask is T1, bits 1-3 the other telescopes.
    std::uint64_t t1Sources = 0;
    std::uint64_t otherSources = 0;
    for (const auto& e :
         analysis::membership(windows, [](const net::Packet& p) {
           return std::optional{p.src};
         }).entries) {
      t1Sources += e.mask & 1u;
      otherSources += (e.mask & 0b1110u) != 0;
    }
    table.addRow({std::to_string(w) + "-" + std::to_string(w + 2),
                  std::to_string(t1Sessions), std::to_string(t1Sources),
                  std::to_string(otherSessions),
                  std::to_string(otherSources)});
    if (w + 2 <= baselineWeeks) {
      t1BaselineSessions += static_cast<double>(t1Sessions);
      t1BaselineSources += static_cast<double>(t1Sources);
      ++baselineBins;
    } else if (w >= baselineWeeks) {
      t1SplitSessions += static_cast<double>(t1Sessions);
      t1SplitSources += static_cast<double>(t1Sources);
      ++splitBins;
    }
  }
  table.render(std::cout);

  const double sessionGain =
      (t1SplitSessions / splitBins) / (t1BaselineSessions / baselineBins);
  const double sourceGain =
      (t1SplitSources / splitBins) / (t1BaselineSources / baselineBins);
  std::cout << "T1 split-period vs baseline, per bi-weekly bin: sessions x"
            << analysis::fixed(sessionGain, 2) << " (+"
            << analysis::fixed((sessionGain - 1) * 100, 0)
            << "%), sources x" << analysis::fixed(sourceGain, 2) << " (+"
            << analysis::fixed((sourceGain - 1) * 100, 0) << "%)\n"
            << "paper: sessions +555%, sources +275%; other telescopes "
               "stay flat\n";
}
