// The paper report (DESIGN.md §4): simulates the standard seed-42 world
// once and prints every section below from it, or with `paper_report
// NAME...` the named ones; either way in list order.
#include <algorithm>
#include <exception>
#include <iostream>
#include <string_view>
#include <vector>

#include "bench/harness.hpp"

// One function per section, each in bench/NAME.cpp.
using SectionFn = void(const v6t::bench::RunContext&);
SectionFn headline_bgp_reactivity, table5_telescopes, table2_protocols,
    table3_target_types, table4_ports, table6_taxonomy, table7_tools,
    table8_network_types, fig03_new_prefix_decay, fig04_growth_cdf,
    fig05_heavy_hitters, fig07a_hourly_traffic, fig07b_taxonomy_initial,
    fig08_upset, fig09_weekly_sessions, fig10_sessions_per_prefix,
    fig11_biweekly_evolution, fig12_address_patterns, fig14_subnet_coverage,
    fig15_taxonomy_split, fig16_source_overlap, fig17_nist,
    ablation_session_timeout, ablation_source_aggregation,
    ablation_prefix_count, ablation_scan_shapes, calibrate;

namespace {

struct Section {
  const char* name;
  SectionFn* print;
  const char* title;
};

// In EXPERIMENTS.md's order.
constexpr Section kSections[] = {
    {"headline_bgp_reactivity", headline_bgp_reactivity,
     "Headline: scanner adaption to BGP signals"},
    {"table5_telescopes", table5_telescopes,
     "Table 5: telescope comparison, initial observation period"},
    {"table2_protocols", table2_protocols,
     "Table 2: packets / sessions / sources per transport protocol"},
    {"table3_target_types", table3_target_types,
     "Table 3: target address-type distribution"},
    {"table4_ports", table4_ports, "Table 4: top-5 TCP/UDP destination ports"},
    {"table6_taxonomy", table6_taxonomy,
     "Table 6: taxonomy of T1 scanners during the split period"},
    {"table7_tools", table7_tools, "Table 7: identified scan tools at T1"},
    {"table8_network_types", table8_network_types,
     "Table 8: network types of scan sources at T1"},
    {"fig03_new_prefix_decay", fig03_new_prefix_decay,
     "Fig. 3: new source prefixes per day after the first announcement"},
    {"fig04_growth_cdf", fig04_growth_cdf,
     "Fig. 4: cumulative growth of packets / ASes / sources / sessions"},
    {"fig05_heavy_hitters", fig05_heavy_hitters,
     "Fig. 5: heavy hitters at the four telescopes"},
    {"fig07a_hourly_traffic", fig07a_hourly_traffic,
     "Fig. 7(a): hourly traffic per telescope, initial period"},
    {"fig07b_taxonomy_initial", fig07b_taxonomy_initial,
     "Fig. 7(b): taxonomy classification per telescope, initial period"},
    {"fig08_upset", fig08_upset,
     "Fig. 8: ASN and source intersections between telescopes"},
    {"fig09_weekly_sessions", fig09_weekly_sessions,
     "Fig. 9: weekly scan sessions per telescope"},
    {"fig10_sessions_per_prefix", fig10_sessions_per_prefix,
     "Fig. 10: cumulative sessions per most-specific prefix at T1"},
    {"fig11_biweekly_evolution", fig11_biweekly_evolution,
     "Fig. 11: bi-weekly sessions/sources, T1 vs other telescopes"},
    {"fig12_address_patterns", fig12_address_patterns,
     "Fig. 12/13: structured vs randomized target generation"},
    {"fig14_subnet_coverage", fig14_subnet_coverage,
     "Fig. 14: packets per scanner type across /48 subnets of T1"},
    {"fig15_taxonomy_split", fig15_taxonomy_split,
     "Fig. 15: taxonomy of T1 scanners during the split period"},
    {"fig16_source_overlap", fig16_source_overlap,
     "Fig. 16: source overlap across telescopes"},
    {"fig17_nist", fig17_nist,
     "Fig. 17: NIST randomness tests on IID vs subnet bits (T1)"},
    {"ablation_session_timeout", ablation_session_timeout,
     "Ablation: sessionization timeout"},
    {"ablation_source_aggregation", ablation_source_aggregation,
     "Ablation: source aggregation level"},
    {"ablation_prefix_count", ablation_prefix_count,
     "Ablation: announcement count vs announced space"},
    {"ablation_scan_shapes", ablation_scan_shapes,
     "Ablation: scan shapes and streaming counters"},
    {"calibrate", calibrate, "calibration overview"},
};

} // namespace

int main(int argc, char** argv) {
  const std::vector<std::string_view> named(argv + 1, argv + argc);
  for (const std::string_view name : named) {
    if (std::ranges::none_of(
            kSections, [&](const Section& s) { return name == s.name; })) {
      std::cerr << "paper_report: unknown section '" << name
                << "'; the sections are:";
      for (const Section& s : kSections) std::cerr << ' ' << s.name;
      std::cerr << '\n';
      return 2;
    }
  }

  const v6t::bench::RunContext ctx = v6t::bench::runStandard();
  int status = 0;
  for (const Section& s : kSections) {
    if (!named.empty() && std::ranges::find(named, s.name) == named.end()) {
      continue;
    }
    std::cout << "== " << s.name << ": " << s.title << " ==\n\n";
    try {
      s.print(ctx);
    } catch (const std::exception& e) {
      std::cerr << "paper_report: " << s.name << ": " << e.what() << '\n';
      status = 1;
    }
    std::cout << '\n';
  }
  return status;
}
