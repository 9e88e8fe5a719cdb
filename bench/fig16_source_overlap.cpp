// Fig. 16 — source overlap across telescopes over the whole measurement:
// (a) sources observed at every telescope; (b) the share of T1∩T2 sources
// seen at both on the same day, which declines once the BGP experiment
// pulls T1's crowd away from T2's.
#include <map>
#include <set>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

int main() {
  using namespace v6t;
  bench::RunContext ctx =
      bench::runStandard("Fig. 16: source overlap across telescopes");

  const core::Period whole = ctx.wholePeriod();

  // (a) sources seen at all four telescopes.
  std::set<net::Ipv6Address> perTelescope[4];
  for (std::size_t t = 0; t < 4; ++t) {
    perTelescope[t] =
        core::ExperimentSummary::sources128(ctx.runner->capture(t), whole);
  }
  std::vector<net::Ipv6Address> everywhere;
  for (const auto& src : perTelescope[0]) {
    if (perTelescope[1].contains(src) && perTelescope[2].contains(src) &&
        perTelescope[3].contains(src)) {
      everywhere.push_back(src);
    }
  }
  std::cout << "(a) /128 sources observed at all four telescopes: "
            << everywhere.size() << " (paper: 10 over the full period)\n";
  const auto& registry = ctx.runner->asRegistry();
  for (const auto& src : everywhere) {
    // Find its AS annotation from any capture.
    net::Asn asn;
    for (const auto& p :
         ctx.runner->capture(core::T1).packets()) {
      if (p.src == src) {
        asn = p.srcAsn;
        break;
      }
    }
    std::cout << "    " << src.toString() << "  ("
              << net::toString(registry.typeOf(asn)) << ")\n";
  }

  // (b) same-day overlap share between T1 and T2, initial vs split.
  auto sameDayShare = [&](core::Period period) {
    std::map<net::Ipv6Address, std::set<std::int64_t>> daysAt[2];
    for (std::size_t t = 0; t < 2; ++t) {
      for (const net::Packet& p :
           ctx.runner->capture(t).packets()) {
        if (period.contains(p.ts)) daysAt[t][p.src].insert(p.ts.dayIndex());
      }
    }
    std::uint64_t shared = 0;
    std::uint64_t sameDay = 0;
    for (const auto& [src, days1] : daysAt[0]) {
      const auto it = daysAt[1].find(src);
      if (it == daysAt[1].end()) continue;
      ++shared;
      for (std::int64_t d : days1) {
        if (it->second.contains(d)) {
          ++sameDay;
          break;
        }
      }
    }
    return std::pair{shared, sameDay};
  };
  const auto [sharedInitial, sameDayInitial] =
      sameDayShare(ctx.initialPeriod());
  const auto [sharedSplit, sameDaySplit] = sameDayShare(ctx.splitPeriod());
  std::cout << "\n(b) T1 and T2 source overlap\n"
            << "    initial: " << sharedInitial << " shared sources, "
            << analysis::fixed(
                   analysis::percent(sameDayInitial,
                                     std::max<std::uint64_t>(sharedInitial, 1)),
                   1)
            << "% seen on the same day\n"
            << "    split:   " << sharedSplit << " shared sources, "
            << analysis::fixed(
                   analysis::percent(sameDaySplit,
                                     std::max<std::uint64_t>(sharedSplit, 1)),
                   1)
            << "% seen on the same day\n"
            << "paper: ~75% same-day during the initial period, declining "
               "toward ~30% as the active experiment attracts scanners to "
               "T1 only\n";
  return 0;
}
