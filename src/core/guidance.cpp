#include "core/guidance.hpp"

#include <algorithm>
#include <unordered_set>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"

namespace v6t::core {

std::vector<Finding> GuidanceEngine::derive(
    const ExperimentRunner& runner, const ExperimentSummary& summary,
    const analysis::TaxonomyResult& t1Taxonomy,
    const analysis::TaxonomyResult& t2Taxonomy) {
  std::vector<Finding> findings;
  const Period whole{sim::kEpoch, runner.experimentEnd()};

  // Captures are time-ordered, so each window is a subspan.
  const auto window = [&](std::size_t t) {
    return packetsIn(runner.capture(t).packets(), whole);
  };
  const std::uint64_t t1 = window(T1).size();
  const std::uint64_t t2 = window(T2).size();
  const std::uint64_t t3 = window(T3).size();
  const std::uint64_t t4 = window(T4).size();

  // (i) Announce your prefix: separately announced vs. covered-only space.
  {
    const double announced = static_cast<double>(std::min(t1, t2));
    const double covered =
        static_cast<double>(std::max<std::uint64_t>(std::max(t3, t4), 1));
    findings.push_back(Finding{
        "BGP visibility",
        "Announce the telescope prefix individually in BGP; a silent "
        "subnet of a covering prefix stays near-invisible.",
        "separately announced telescopes received >= " +
            analysis::fixed(announced / covered, 0) +
            "x the packets of the busiest covered-only telescope (T1=" +
            analysis::withThousands(t1) + ", T2=" +
            analysis::withThousands(t2) + " vs T3=" +
            analysis::withThousands(t3) + ", T4=" +
            analysis::withThousands(t4) + ")"});
  }

  // (ii) Number of announced prefixes beats prefix size: compare /48
  // session share before vs. after the subnets became prefixes.
  {
    const auto& cycles = runner.schedule().cycles();
    const auto& sessions = summary.telescope(T1).sessions128;
    const auto& packets = runner.capture(T1).packets();
    // The most specific prefixes the schedule ever announces (the /48s in
    // the paper's full 16-split configuration).
    unsigned deepest = 0;
    for (const net::Prefix& p : cycles.back().announced) {
      deepest = std::max(deepest, p.length());
    }
    auto shareInDeepest = [&](Period period) {
      std::uint64_t total = 0;
      std::uint64_t inDeepest = 0;
      for (const telescope::Session& s : sessionsIn(sessions, period)) {
        ++total;
        const net::Ipv6Address dst = packets[s.packetIdx.front()].dst;
        for (const net::Prefix& p : cycles.back().announced) {
          if (p.length() == deepest && p.contains(dst)) {
            ++inDeepest;
            break;
          }
        }
      }
      return analysis::percent(inDeepest, total);
    };
    const Period firstCycle{cycles.front().announceAt, cycles.front().endsAt};
    const Period lastCycle{cycles.back().announceAt, cycles.back().endsAt};
    // During the baseline the /48s exist only as silent subnets of the /32;
    // in the final cycle they are announced prefixes.
    const double before = shareInDeepest(firstCycle);
    const double after = shareInDeepest(lastCycle);
    findings.push_back(Finding{
        "Prefix count over prefix size",
        "Announcing more (smaller) prefixes attracts more scanners than "
        "announcing one large prefix; size matters less than visibility.",
        "/" + std::to_string(deepest) +
            " sub-space share of T1 sessions: " + analysis::fixed(before, 2) +
            "% while silent inside the covering prefix vs " +
            analysis::fixed(after, 1) + "% once announced as prefixes"});
  }

  // (iii) Different attractors draw different scanners. A /128 taxonomy
  // profiles each source once, so its profiles are the telescope's sources.
  {
    std::unordered_set<net::Ipv6Address> t1Sources;
    t1Sources.reserve(t1Taxonomy.profiles.size());
    for (const analysis::ScannerProfile& p : t1Taxonomy.profiles) {
      t1Sources.insert(p.source.addr);
    }
    const auto shared = static_cast<std::uint64_t>(
        std::ranges::count_if(t2Taxonomy.profiles, [&](const auto& p) {
          return t1Sources.contains(p.source.addr);
        }));
    const std::uint64_t either =
        t1Taxonomy.profiles.size() + t2Taxonomy.profiles.size() - shared;
    findings.push_back(Finding{
        "Attractor bias",
        "BGP announcements and DNS exposure attract largely disjoint "
        "scanner crowds; deploy the attractor matching the scanners you "
        "want to observe.",
        "only " + analysis::fixed(analysis::percent(shared, either), 1) +
            "% of T1+T2 /128 sources appear at both telescopes"});
  }

  // (iv) Active services draw scanners to neighboring space.
  {
    const double ratio =
        static_cast<double>(t4) /
        static_cast<double>(std::max<std::uint64_t>(t3, 1));
    findings.push_back(Finding{
        "Reactivity",
        "A responsive host multiplies the attention its surrounding "
        "address space receives; keep honeypot reactivity in mind when "
        "interpreting volumes.",
        "reactive T4 received " + analysis::fixed(ratio, 0) +
            "x the packets of the equally-covered silent T3"});
  }

  // (v) Structured target addresses dominate scanner behavior.
  {
    const auto structured = static_cast<std::uint64_t>(
        std::ranges::count(t1Taxonomy.sessionAddrSel,
                           analysis::AddressSelection::Structured));
    // A scanner counts as low-byte-seeking if any of its targets is one.
    const auto lowByteScanners = static_cast<std::uint64_t>(
        std::ranges::count_if(t1Taxonomy.profiles, [](const auto& p) {
          return p.targetTypes.of(analysis::AddressType::LowByte) > 0;
        }));
    findings.push_back(Finding{
        "Target structure",
        "Populate (or monitor) structured addresses: low-byte and other "
        "predictable IIDs are what most scanners try first.",
        analysis::fixed(
            analysis::percent(structured, t1Taxonomy.sessionAddrSel.size()),
            1) +
            "% of T1 sessions use structured target selection; " +
            analysis::fixed(
                analysis::percent(lowByteScanners,
                                  t1Taxonomy.profiles.size()),
                1) +
            "% of scanners probe at least one low-byte address"});
  }

  return findings;
}

} // namespace v6t::core
